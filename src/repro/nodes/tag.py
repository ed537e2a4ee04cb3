"""Backscatter tag model.

A :class:`BackscatterTag` carries everything the protocols need on the tag
side: its global id, the temporary id it drew for this interaction, its
message, single-tap channel and clock. Crucially, every
"random" decision a tag makes is a *deterministic* function of its seed and
the slot index (via :func:`repro.coding.prng.slot_decision`), which is what
allows the reader to replay those decisions during decoding — the linchpin
of both Buzz protocols.

The per-phase decision salts keep the identification pattern, the bucket
hash and the data-phase schedule statistically independent even though they
all derive from the same temporary id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.coding.prng import slot_decision
from repro.phy.sync import ClockModel
from repro.utils.bits import as_bits

__all__ = [
    "BackscatterTag",
    "bucket_hash",
    "bucket_hash_array",
    "SALT_KEST",
    "SALT_BUCKET",
    "SALT_CSPATTERN",
    "SALT_DATA",
]

#: Decision salts — one per protocol phase, so the same temporary id yields
#: independent pseudorandom streams in each phase. The reader uses the same
#: constants when regenerating patterns.
SALT_KEST = 101
SALT_BUCKET = 202
SALT_CSPATTERN = 303
SALT_DATA = 404


@dataclass
class BackscatterTag:
    """One backscatter node.

    Attributes
    ----------
    global_id:
        The node's long-term unique id (e.g. its EPC). Only used as a PRNG
        seed during identification.
    temp_id:
        Temporary id drawn for this interaction; ``None`` until assigned.
    message:
        Payload bits (CRC already appended by the caller if desired).
    channel:
        Complex single-tap channel coefficient toward the reader.
    clock:
        The tag's oscillator (fractional frequency error).
    """

    global_id: int
    channel: complex
    message: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    temp_id: Optional[int] = None
    clock: Optional[ClockModel] = None

    def __post_init__(self) -> None:
        if self.global_id < 0:
            raise ValueError("global_id must be non-negative")
        self.message = as_bits(self.message)

    # ---- per-phase deterministic decisions ----------------------------------
    def kest_transmits(self, step: int, slot: int, p: float, session: int = 0) -> bool:
        """Stage-1 decision: reflect in this K-estimation slot?

        Seeded by the *global* id — temporary ids do not exist yet.
        ``session`` is a nonce the reader broadcasts in its trigger command
        so that a protocol restart draws fresh coins (otherwise a restart
        would reproduce the identical estimate).
        """
        key = (session << 28) | (step << 16) | slot
        return bool(slot_decision(self.global_id, key, p, salt=SALT_KEST))

    def draw_temp_id(self, id_space: int, rng: np.random.Generator) -> int:
        """Pick a temporary id uniformly from ``[0, id_space)`` and store it."""
        if id_space <= 0:
            raise ValueError("id_space must be positive")
        self.temp_id = int(rng.integers(0, id_space))
        return self.temp_id

    def bucket_of(self, n_buckets: int) -> int:
        """Stage-2: which bucket (time slot) this tag's temporary id hashes to.

        The hash must be computable by the reader for *any* candidate id, so
        it is a pure function of the id (salted mix), not of tag state.
        """
        if self.temp_id is None:
            raise RuntimeError("tag has no temporary id yet")
        return bucket_hash(self.temp_id, n_buckets)

    def cs_pattern_bit(self, slot: int) -> int:
        """Stage-3: pseudorandom pattern bit for a compressive-sensing slot."""
        if self.temp_id is None:
            raise RuntimeError("tag has no temporary id yet")
        return slot_decision(self.temp_id, slot, 0.5, salt=SALT_CSPATTERN)

    def data_transmits(self, slot: int, p: float) -> bool:
        """Data-phase decision: transmit the message in this slot?

        Seeded by temporary id and slot (§6a); ``p`` encodes the density the
        reader broadcast with its K̂ estimate.
        """
        if self.temp_id is None:
            raise RuntimeError("tag has no temporary id yet")
        return bool(slot_decision(self.temp_id, slot, p, salt=SALT_DATA))


def bucket_hash(temp_id: int, n_buckets: int) -> int:
    """The Stage-2 bucket hash — shared by tags and reader.

    A salted SplitMix64 of the id reduced mod ``n_buckets``; deterministic
    and uniform enough that K ids rarely concentrate.
    """
    from repro.coding.prng import _mix64

    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    return int(_mix64((int(temp_id) << 8) ^ SALT_BUCKET) % n_buckets)


def bucket_hash_array(temp_ids: np.ndarray, n_buckets: int) -> np.ndarray:
    """Vectorized :func:`bucket_hash` over an id array.

    The reader evaluates the bucket hash for *every* candidate id in the
    reduced space (``a·c·K̂`` of them), so the per-id Python call is the
    identification protocol's reader-side hot loop; uint64 arithmetic wraps
    modulo 2⁶⁴ exactly like the scalar path's masking.
    """
    from repro.coding.prng import _mix64_array

    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    ids = np.asarray(temp_ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = _mix64_array((ids << np.uint64(8)) ^ np.uint64(SALT_BUCKET))
    return (mixed % np.uint64(n_buckets)).astype(int)
