"""Buzz protocol configuration.

The paper fixes nearly every protocol parameter, and those fixed values
are named constants beside their one reader:

* Stage 1: termination threshold 0.75 and the step bound
  (:mod:`repro.core.kestimate`);
* Stage 2: ``c = 10`` buckets per expected node, ``a = K`` ids per bucket
  (here);
* Stage 3: ``M ≈ 1.5·K·log a`` pattern slots, at least 16 (here);
* Data phase: the clamp on the sparse-D density and the 25·K abort bound
  (here), and the BP + verify rounds per decode
  (:mod:`repro.core.rateless`). The reader decodes after every slot (the
  paper's "decode as you go").

:class:`BuzzConfig` holds only the three knobs a caller varies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import ensure_positive, ensure_positive_int

__all__ = ["BuzzConfig"]

#: Stage-2 buckets per expected node (paper: c = 10).
BUCKETS_PER_NODE = 10
#: Stage-3 slot budget multiplier on ``K̂·log2(a)``: >1 buys recovery
#: robustness at a small time cost.
CS_MARGIN = 1.5
#: Floor on Stage-3 slots (keeps tiny K well-posed).
CS_MIN_SLOTS = 16
#: Clamp on the per-slot transmit probability ``p = colliders/K̂``.
DENSITY_MIN = 0.20
DENSITY_MAX = 0.85
#: Abort threshold: declare loss if ``L > factor · K`` slots have not
#: decoded everything (the rateless code has no intrinsic end).
MAX_DATA_SLOTS_FACTOR = 25


@dataclass(frozen=True)
class BuzzConfig:
    """The protocol parameters a run varies; the rest are module constants.

    Attributes
    ----------
    slots_per_step:
        Stage-1 ``s`` — slots per halving step (paper: 4). The Stage-1
        ablation sweeps it.
    density_colliders:
        Data-phase target for the expected number of concurrent
        transmitters per slot (the sparsity of D, §6d). The density
        ablation sweeps it.
    bp_restarts:
        Extra random initialisations per position per decode call — bit
        flipping is a local search and restarts shake off local minima in
        dense collisions. The session benchmark runs a ``0`` series.
    """

    slots_per_step: int = 4
    density_colliders: float = 5.0
    bp_restarts: int = 4

    def __post_init__(self) -> None:
        ensure_positive_int(self.slots_per_step, "slots_per_step")
        ensure_positive(self.density_colliders, "density_colliders")
        if self.bp_restarts < 0:
            raise ValueError("bp_restarts must be >= 0")

    # ---- derived parameters ---------------------------------------------------
    def a(self, k_hat: int) -> int:
        """Stage-2 ids per bucket (paper: a = K), at least 2."""
        return max(2, k_hat)

    def n_buckets(self, k_hat: int) -> int:
        """Stage-2 bucket count ``c·K̂``."""
        return BUCKETS_PER_NODE * max(1, k_hat)

    def temp_id_space(self, k_hat: int) -> int:
        """Temporary-id space size ``a·c·K̂``."""
        return self.a(k_hat) * self.n_buckets(k_hat)

    def cs_slots(self, k_hat: int) -> int:
        """Stage-3 slot budget ``≈ margin · K̂ · log2 a``, at least
        :data:`CS_MIN_SLOTS`.

        The budget stays above ~2 measurements per unknown at every K̂:
        below that, distinct candidates' pseudorandom pattern columns
        collide with non-negligible probability and recovery becomes
        ambiguous.
        """
        base = max(1, k_hat) * math.log2(self.a(k_hat))
        return max(CS_MIN_SLOTS, math.ceil(CS_MARGIN * base))

    def data_density(self, k_hat: int) -> float:
        """Per-slot transmit probability broadcast with K̂ (sparse D)."""
        k = max(1, k_hat)
        return float(min(DENSITY_MAX, max(DENSITY_MIN, self.density_colliders / k)))

    def max_data_slots(self, k: int) -> int:
        """Loss-declaration bound on collected collision slots."""
        return MAX_DATA_SLOTS_FACTOR * max(1, k)
