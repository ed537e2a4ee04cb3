"""The full three-stage Buzz identification protocol (paper §5).

Pipeline:

1. **Estimate K** (:mod:`repro.core.kestimate`) — ``s·j*`` slots.
2. **Draw temporary ids & bucket** (:mod:`repro.core.bucketing`) — each
   active node picks a temporary id uniformly from the ``a·c·K̂`` space and
   reflects in its bucket's slot; empty buckets eliminate ids — ``c·K̂``
   slots.
3. **Compressive sensing** — surviving candidates' pseudorandom patterns
   form the reduced matrix A′; the reader solves ``y = A′z′`` by L1
   minimization and reads off the active ids *and their complex channels*
   — ``M ≈ K̂·log a`` slots.

If two active nodes drew the same temporary id they are indistinguishable
(the recovered channel is their sum); the reader detects the resulting CRC
chaos later and restarts — we surface this as ``duplicate_ids`` plus a
retry loop, mirroring "the reader starts over as is the case in today's
RFID systems".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.coding.prng import slot_decision_matrix, transmit_pattern_matrix
from repro.core.bucketing import BucketingResult, run_bucketing
from repro.core.config import BuzzConfig
from repro.core.kestimate import KEstimateResult, estimate_k
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import SALT_CSPATTERN, BackscatterTag
from repro.sensing.recovery import recover_sparse

__all__ = [
    "ChannelEstimates",
    "IdentificationResult",
    "identify",
    "MAX_ATTEMPTS",
    "cs_transmit_matrix",
    "candidate_matrix",
]


@dataclass(frozen=True)
class ChannelEstimates:
    """The reader's post-identification view: who is active, on what channel.

    This is the object the session pipeline threads from the
    identification stage into the data stage — the recovered temporary ids
    (the data-phase PRNG seeds) paired with the *estimated* complex
    channels the compressive-sensing recovery produced, never the oracle
    ones. It is deliberately detached from :class:`IdentificationResult`
    so a data phase (or a cache of estimates) can be driven without
    holding the full protocol trace.

    Attributes
    ----------
    ids:
        Sorted recovered temporary ids.
    values:
        Complex channel estimate per id (same order).
    """

    ids: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=int).ravel()
        values = np.asarray(self.values, dtype=complex).ravel()
        if ids.size != values.size:
            raise ValueError("ids and values must have equal length")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.ids.size)

    def __contains__(self, temp_id: int) -> bool:
        return bool(np.any(self.ids == int(temp_id)))

    def channel_for(self, temp_id: int) -> complex:
        """Estimated channel of a recovered temporary id."""
        idx = np.flatnonzero(self.ids == int(temp_id))
        if idx.size == 0:
            raise KeyError(f"id {temp_id} was not recovered")
        return complex(self.values[idx[0]])

    def seeds(self) -> List[int]:
        """The recovered ids as plain ints — data-phase decoder seeds."""
        return [int(i) for i in self.ids]


@dataclass
class IdentificationResult:
    """Outcome of one identification attempt.

    Attributes
    ----------
    recovered_ids:
        Sorted temporary ids the reader believes are active.
    channel_estimates:
        Complex channel estimate per recovered id (same order).
    k_estimate:
        Stage-1 result.
    bucketing:
        Stage-2 result.
    slots_used:
        Total identification slots across the three stages.
    duration_s:
        Wall-clock identification time (slots at the uplink symbol rate
        plus the reader's trigger command).
    duplicate_ids:
        True when ≥ 2 active tags drew the same temporary id (restart).
    attempts:
        Number of protocol attempts including restarts.
    exact:
        True when the recovered id set equals the truly active set.
    transmissions:
        Per-tag count of slots each tag reflected in across all stages and
        attempts — the identification half of the session energy account.
    """

    recovered_ids: np.ndarray
    channel_estimates: np.ndarray
    k_estimate: KEstimateResult
    bucketing: BucketingResult
    slots_used: int
    duration_s: float
    duplicate_ids: bool
    attempts: int
    exact: bool
    transmissions: np.ndarray

    @property
    def estimates(self) -> ChannelEstimates:
        """The reusable (ids, estimated channels) view for the data phase."""
        return ChannelEstimates(ids=self.recovered_ids, values=self.channel_estimates)


def cs_transmit_matrix(tags: Sequence[BackscatterTag], n_slots: int) -> np.ndarray:
    """``(M, K)`` Stage-3 schedule: each active tag sends its pattern bits.

    One batched :func:`~repro.coding.prng.slot_decision_matrix` call over
    all slots and tags, replacing the former ``M × K`` scalar PRNG loop —
    bit-identical to evaluating ``tag.cs_pattern_bit`` per entry.
    """
    for tag in tags:
        if tag.temp_id is None:
            raise RuntimeError("tag has no temporary id yet")
    return slot_decision_matrix(
        [t.temp_id for t in tags], range(n_slots), 0.5, salt=SALT_CSPATTERN
    )


def candidate_matrix(candidates: Sequence[int], n_slots: int) -> np.ndarray:
    """Reader-side regeneration of A′ — one column per surviving candidate id."""
    return transmit_pattern_matrix(list(candidates), n_slots, p=0.5, salt=SALT_CSPATTERN)


#: Protocol runs :func:`identify` makes before it returns a result that
#: still holds a temporary-id collision.
MAX_ATTEMPTS = 3


def identify(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    config: BuzzConfig = BuzzConfig(),
) -> IdentificationResult:
    """Run the three-stage protocol, restarting on temporary-id collisions
    (at most :data:`MAX_ATTEMPTS` runs).

    ``tags`` are the K active nodes (inactive nodes never transmit and cost
    nothing — the whole point of the design). The reader never uses
    knowledge of K or of the tags' ids except through the air protocol.
    """
    channels = np.array([t.channel for t in tags], dtype=complex)
    total_slots = 0
    tx_counts = np.zeros(len(tags), dtype=int)

    for attempts in range(1, MAX_ATTEMPTS + 1):
        # ---- Stage 1: estimate K ---------------------------------------------
        # The attempt number doubles as the session nonce the reader
        # broadcasts, so a restart draws fresh Stage-1 coins.
        kest = estimate_k(tags, front_end, rng, config, session=attempts - 1)
        k_hat = max(1, kest.k_hat)
        total_slots += kest.slots_used
        tx_counts += kest.transmissions

        # ---- Stage 2: temporary ids + bucketing --------------------------------
        id_space = config.temp_id_space(k_hat)
        for tag in tags:
            tag.draw_temp_id(id_space, rng)
        true_ids = np.array(sorted(t.temp_id for t in tags), dtype=int)
        duplicates = len(set(t.temp_id for t in tags)) != len(tags)

        bucketing = run_bucketing(
            tags, config.n_buckets(k_hat), id_space, front_end, rng
        )
        total_slots += bucketing.slots_used
        tx_counts += 1  # every active tag reflects exactly once, in its bucket

        # ---- Stage 3: compressive sensing --------------------------------------
        # Every active node occupies exactly one bucket, so the occupied
        # count is a hard lower bound on K — use it to harden Stage 3's slot
        # budget against a Stage-1 underestimate. (The nodes generate pattern
        # bits statelessly until told to stop, so the reader is free to pick
        # M after seeing the buckets.)
        k_for_cs = max(k_hat, int(np.count_nonzero(bucketing.occupied)))
        m_slots = config.cs_slots(k_for_cs)
        tx = cs_transmit_matrix(tags, m_slots)
        tx_counts += tx.sum(axis=0, dtype=int)
        if len(tags) == 0:
            symbols = front_end.observe_empty(m_slots, rng)
        else:
            symbols = front_end.observe(tx, channels, rng)
        a_prime = candidate_matrix(bucketing.candidates, m_slots).astype(float)
        total_slots += m_slots

        if bucketing.n_candidates == 0:
            recovered = np.zeros(0, dtype=int)
            estimates = np.zeros(0, dtype=complex)
        else:
            result = recover_sparse(
                a_prime,
                symbols,
                sparsity=k_for_cs,
                noise_std=front_end.noise_std,
            )
            recovered = bucketing.candidates[result.support]
            estimates = result.channels()
            order = np.argsort(recovered)
            recovered = recovered[order]
            estimates = estimates[order]

        duration = (
            total_slots * GEN2_DEFAULT_TIMING.uplink_symbol_s()
            + GEN2_DEFAULT_TIMING.query_duration_s()
        )
        exact = bool(
            not duplicates
            and recovered.size == len(tags)
            and np.array_equal(recovered, true_ids)
        )
        outcome = IdentificationResult(
            recovered_ids=recovered,
            channel_estimates=estimates,
            k_estimate=kest,
            bucketing=bucketing,
            slots_used=total_slots,
            duration_s=duration,
            duplicate_ids=duplicates,
            attempts=attempts,
            exact=exact,
            transmissions=tx_counts.copy(),
        )
        # On a temporary-id collision the paper's reader starts the
        # protocol over, until its attempts run out.
        if not duplicates or attempts == MAX_ATTEMPTS:
            return outcome
