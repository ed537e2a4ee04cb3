"""Framed Slotted ALOHA inventory — the Gen-2 identification baseline.

Simulates the reader's inventory loop: issue Query (frame of ``2^Q``
slots), tags pick a random slot and reply with their temporary id, the
reader classifies each slot (empty / single reply = success / collision),
ACKs successes, adjusts Q, and repeats with QueryAdjust until every tag is
identified.

Two variants (paper §10):

* **plain FSA** — initial Q = 4, 16-bit RN16 temporary ids;
* **FSA with known K̂** — seeded with Buzz's Stage-1 estimate:
  ``Q = log2(K̂)`` and a temporary id just long enough for the reduced id
  space, shrinking both uplink and downlink time.

Duplicate temporary ids are modelled: two tags that drew the same id and
transmit in the same slot are indistinguishable; the reader's ACK collides
at both tags and neither is resolved, surfacing as extra rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.gen2.qalgorithm import QAlgorithm
from repro.gen2.timing import GEN2_DEFAULT_TIMING, SlotOutcome
from repro.utils.validation import ensure_positive_int

__all__ = ["FsaConfig", "FsaResult", "run_fsa_inventory"]


@dataclass(frozen=True)
class FsaConfig:
    """Parameters of one FSA inventory run.

    Attributes
    ----------
    n_tags:
        Number of tags answering the inventory (the paper's K).
    initial_q:
        Starting Q. ``None`` → standard default 4.0; FSA-with-K̂ passes
        ``log2(K̂)``.
    id_bits:
        Temporary-id length. 16 for plain Gen-2 RN16; FSA-with-K̂ shrinks
        it to cover only the reduced id space.
    ack_bits:
        ACK command length. The Gen-2 ACK echoes the temporary id, so
        FSA-with-K̂ shortens it along with ``id_bits``; ``None`` uses the
        Gen-2 default (18 bits for an RN16 echo).
    max_slots:
        Safety valve against pathological Q trajectories.
    """

    n_tags: int
    initial_q: Optional[float] = None
    id_bits: int = 16
    ack_bits: Optional[int] = None
    max_slots: int = 100_000

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_tags, "n_tags")
        ensure_positive_int(self.id_bits, "id_bits")
        ensure_positive_int(self.max_slots, "max_slots")


@dataclass
class FsaResult:
    """Outcome of an FSA inventory run."""

    identified: int
    total_time_s: float
    slots_used: int
    empty_slots: int
    collision_slots: int
    success_slots: int
    rounds: int
    q_trace: List[int] = field(default_factory=list)
    #: Total tag replies across every processed slot (success + collision
    #: participants) — the inventory's tag-side energy driver.
    total_replies: int = 0

    @property
    def efficiency(self) -> float:
        """Fraction of slots that were successes (ALOHA caps this at 1/e)."""
        return self.success_slots / self.slots_used if self.slots_used else 0.0


def run_fsa_inventory(config: FsaConfig, rng: np.random.Generator) -> FsaResult:
    """Simulate one complete Gen-2 inventory until all tags are identified.

    Tags re-draw their slot (and temporary id) every round, per the
    standard. Airtime is priced off the Gen-2 timing model,
    :data:`~repro.gen2.timing.GEN2_DEFAULT_TIMING`.
    """
    timing = GEN2_DEFAULT_TIMING
    if config.ack_bits is not None:
        timing = replace(timing, ack_bits=config.ack_bits)
    q_algo = QAlgorithm(initial_q=config.initial_q if config.initial_q is not None else 4.0)

    remaining = config.n_tags
    identified = 0
    total_time = timing.query_duration_s()  # round-opening Query
    slots = empties = collisions = successes = rounds = replies = 0
    q_trace: List[int] = [q_algo.q]
    id_space = 1 << config.id_bits

    while remaining > 0 and slots < config.max_slots:
        rounds += 1
        frame = q_algo.frame_size
        # Each remaining tag picks a slot and a temporary id for this round.
        # The ids decide nothing here (a collision resolves nobody either
        # way), but their draw stays so the generator stream is unchanged.
        slot_choice = rng.integers(0, frame, size=remaining)
        rng.integers(0, id_space, size=remaining)
        counts = np.bincount(slot_choice, minlength=frame)

        round_resolved = 0
        for slot_index in range(frame):
            if remaining - round_resolved <= 0:
                break
            slots += 1
            if slots >= config.max_slots:
                break
            occupancy = int(counts[slot_index])
            replies += occupancy
            if occupancy == 0:
                outcome = SlotOutcome.EMPTY
                empties += 1
            elif occupancy == 1:
                outcome = SlotOutcome.SUCCESS
                successes += 1
                round_resolved += 1
            else:
                # >1 tags replied: nobody is resolved this slot, whether or
                # not their temporary ids happen to coincide.
                outcome = SlotOutcome.COLLISION
                collisions += 1
            total_time += timing.slot_duration_s(outcome, config.id_bits)
            q_algo.update(outcome)
            q_trace.append(q_algo.q)

        identified += round_resolved
        remaining -= round_resolved
        if remaining > 0:
            total_time += timing.query_adjust_duration_s()

    return FsaResult(
        identified=identified,
        total_time_s=total_time,
        slots_used=slots,
        empty_slots=empties,
        collision_slots=collisions,
        success_slots=successes,
        rounds=rounds,
        q_trace=q_trace,
        total_replies=replies,
    )
