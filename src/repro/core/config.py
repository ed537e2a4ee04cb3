"""Buzz protocol configuration.

One dataclass gathers every tunable the paper names, with the paper's
values as defaults:

* Stage 1: ``s = 4`` slots per step, termination threshold 0.75 (§5.1.D);
* Stage 2: ``c = 10`` buckets per expected node, ``a = K`` ids per bucket;
* Stage 3: ``M ≈ K·log a`` pattern slots (we expose the safety margin);
* Data phase: sparse-D density target (expected colliders per slot) and the
  abort bound; the reader decodes after every slot (the paper's "decode as
  you go").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import (
    ensure_positive,
    ensure_positive_int,
    ensure_probability,
)

__all__ = ["BuzzConfig"]


@dataclass(frozen=True)
class BuzzConfig:
    """Protocol parameters for both Buzz phases.

    Attributes
    ----------
    slots_per_step:
        Stage-1 ``s`` — slots per halving step (paper: 4).
    empty_threshold:
        Stage-1 termination threshold on the empty-slot fraction (paper:
        0.75).
    max_kest_steps:
        Safety bound on Stage-1 steps (log K + O(1) expected).
    c:
        Stage-2 buckets per expected node (paper: 10).
    a_factor:
        Stage-2 ids per bucket as a multiple of K̂ (paper sets a = K, i.e.
        1.0).
    cs_margin:
        Stage-3 slot budget multiplier on ``K̂·log2(a)``; >1 buys recovery
        robustness at a small time cost.
    cs_min_slots:
        Floor on Stage-3 slots (keeps tiny K well-posed).
    cs_method:
        Sparse-recovery solver for Stage 3 (``"bp"`` is the paper's).
    density_colliders:
        Data-phase target for the expected number of concurrent
        transmitters per slot (the sparsity of D, §6d).
    density_min / density_max:
        Clamp on the per-slot transmit probability ``p = colliders/K̂``.
    max_data_slots_factor:
        Abort threshold: declare loss if ``L > factor · K`` slots have not
        decoded everything (the rateless code has no intrinsic end).
    bp_max_flips:
        Safety bound on bit flips per position per decode call.
    bp_restarts:
        Extra random initialisations per position per decode call — bit
        flipping is a local search and restarts shake off local minima in
        dense collisions.
    bp_verify_rounds:
        Bound on the BP + CRC-verify fixpoint iterations per
        :meth:`~repro.core.rateless.RatelessDecoder.try_decode` call: each
        freeze pins bits that may unlock further flips and freezes (the
        paper's ripple effect within one slot arrival). The loop exits
        early the moment a verify pass freezes nothing new, so the bound
        only matters on long ripple chains.
    """

    slots_per_step: int = 4
    empty_threshold: float = 0.75
    max_kest_steps: int = 24
    c: int = 10
    a_factor: float = 1.0
    cs_margin: float = 1.5
    cs_min_slots: int = 16
    cs_method: str = "bp"
    density_colliders: float = 5.0
    density_min: float = 0.20
    density_max: float = 0.85
    max_data_slots_factor: float = 25.0
    bp_max_flips: int = 10_000
    bp_restarts: int = 4
    bp_verify_rounds: int = 4

    def __post_init__(self) -> None:
        ensure_positive_int(self.slots_per_step, "slots_per_step")
        ensure_probability(self.empty_threshold, "empty_threshold")
        ensure_positive_int(self.max_kest_steps, "max_kest_steps")
        ensure_positive_int(self.c, "c")
        ensure_positive(self.a_factor, "a_factor")
        ensure_positive(self.cs_margin, "cs_margin")
        ensure_positive_int(self.cs_min_slots, "cs_min_slots")
        ensure_positive(self.density_colliders, "density_colliders")
        ensure_probability(self.density_min, "density_min")
        ensure_probability(self.density_max, "density_max")
        if self.density_min > self.density_max:
            raise ValueError("density_min must be <= density_max")
        ensure_positive(self.max_data_slots_factor, "max_data_slots_factor")
        ensure_positive_int(self.bp_max_flips, "bp_max_flips")
        if self.bp_restarts < 0:
            raise ValueError("bp_restarts must be >= 0")
        ensure_positive_int(self.bp_verify_rounds, "bp_verify_rounds")

    # ---- derived parameters ---------------------------------------------------
    def a(self, k_hat: int) -> int:
        """Stage-2 ids per bucket: ``a = a_factor · K̂`` (paper: a = K)."""
        return max(2, int(round(self.a_factor * max(1, k_hat))))

    def n_buckets(self, k_hat: int) -> int:
        """Stage-2 bucket count ``c·K̂``."""
        return self.c * max(1, k_hat)

    def temp_id_space(self, k_hat: int) -> int:
        """Temporary-id space size ``a·c·K̂``."""
        return self.a(k_hat) * self.n_buckets(k_hat)

    def cs_slots(self, k_hat: int) -> int:
        """Stage-3 slot budget ``≈ margin · K̂ · log2 a``.

        Floored at ``max(cs_min_slots, 2·K̂)``: below ~2 measurements per
        unknown, distinct candidates' pseudorandom pattern columns collide
        with non-negligible probability and recovery becomes ambiguous.
        """
        a = self.a(k_hat)
        k = max(1, k_hat)
        base = k * math.log2(max(2, a))
        return max(self.cs_min_slots, 2 * k, int(math.ceil(self.cs_margin * base)))

    def data_density(self, k_hat: int) -> float:
        """Per-slot transmit probability broadcast with K̂ (sparse D)."""
        k = max(1, k_hat)
        return float(min(self.density_max, max(self.density_min, self.density_colliders / k)))

    def max_data_slots(self, k: int) -> int:
        """Loss-declaration bound on collected collision slots."""
        bound = int(self.max_data_slots_factor * max(1, k))
        return max(bound, 4)
