"""Stage 1 — streaming estimation of K (paper §5.1.A, Lemma 5.1).

Time is divided into steps of ``s`` slots. In step ``j`` every node with
data reflects in each slot independently with probability ``p_j = 2^-j``.
The reader energy-detects each slot and watches the empty-slot fraction
``E_j``; once ``E_j`` crosses the threshold (0.75 in the paper) at step
``j*``, it estimates

    K̂ = log(E_j*) / log(1 − p_j*),

clamping the numerator at ``1 − 1/s`` when all slots are empty (the
paper's footnote 2). The expected cost is ``s · (log₂K + O(1))`` slots.

One reader-side refinement over the paper's formula (same air protocol,
same slot count): instead of inverting only the *terminating* step's empty
fraction, the reader maximum-likelihood-fits K to the empty counts of
**all** steps it observed — every step's slots are Bernoulli(``(1−p_j)^K``)
empties, so the joint likelihood is closed-form. With the paper's s = 4
the single-step inversion has enormous variance (E_j is quantised to
quarters); the ML estimate uses the same information the air already paid
for and cuts the tail of wild over/under-estimates that would otherwise
force oversized temporary-id spaces or protocol restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.coding.prng import slot_decision_matrix
from repro.core.config import BuzzConfig
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import SALT_KEST, BackscatterTag

__all__ = ["KEstimateResult", "estimate_k", "kest_transmit_matrix"]

#: Stage-1 termination threshold on a step's empty-slot fraction (paper:
#: 0.75).
EMPTY_THRESHOLD = 0.75
#: Safety bound on Stage-1 steps (log K + O(1) expected).
MAX_KEST_STEPS = 24


@dataclass(frozen=True)
class KEstimateResult:
    """Outcome of the Stage-1 estimator.

    Attributes
    ----------
    k_hat:
        Estimated number of nodes with data (≥ 1; 0 when the medium looks
        silent at step 1 already and stays silent).
    steps_used:
        Number of halving steps until termination (``j*``).
    slots_used:
        Total slots consumed (``s · steps_used``).
    empty_fractions:
        Observed ``E_j`` per step, for diagnostics and the ablation bench.
    """

    k_hat: int
    steps_used: int
    slots_used: int
    empty_fractions: List[float] = field(default_factory=list)
    #: Per-tag count of slots each tag reflected in — the session pipeline's
    #: per-stage energy accounting. ``None`` for hand-built results.
    transmissions: Optional[np.ndarray] = None


def kest_transmit_matrix(
    tags: Sequence[BackscatterTag], step: int, slots_per_step: int, session: int = 0
) -> np.ndarray:
    """The ``(s, K)`` reflect/silent schedule of one estimation step.

    Each tag evaluates its deterministic per-slot decision with
    ``p = 2^-step``.
    """
    p = 2.0 ** (-step)
    # Same composite key as BackscatterTag.kest_transmits, evaluated for the
    # whole (s, K) block in one vectorized pass.
    keys = [(session << 28) | (step << 16) | slot for slot in range(slots_per_step)]
    return slot_decision_matrix([t.global_id for t in tags], keys, p, salt=SALT_KEST)


def estimate_k(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    config: BuzzConfig = BuzzConfig(),
    session: int = 0,
) -> KEstimateResult:
    """Run Stage 1 against a live tag population.

    The reader only sees energy per slot; the tags' channels and noise come
    from ``front_end``. Returns K̂ and the slot budget consumed.
    """
    channels = np.array([t.channel for t in tags], dtype=complex)
    s = config.slots_per_step
    empty_fractions: List[float] = []
    transmissions = np.zeros(len(tags), dtype=int)

    for step in range(1, MAX_KEST_STEPS + 1):
        matrix = kest_transmit_matrix(tags, step, s, session)
        transmissions += matrix.sum(axis=0, dtype=int)
        if len(tags) == 0:
            symbols = front_end.observe_empty(s, rng)
        else:
            symbols = front_end.observe(matrix, channels, rng)
        e_j = front_end.empty_fraction(symbols)
        empty_fractions.append(e_j)
        if e_j >= EMPTY_THRESHOLD:
            k_hat = _ml_estimate(empty_fractions, s)
            return KEstimateResult(
                k_hat=k_hat,
                steps_used=step,
                slots_used=s * step,
                empty_fractions=empty_fractions,
                transmissions=transmissions,
            )

    # Pathological: medium stayed busy through every step. Fall back to the
    # ML fit over everything observed (the paper restarts in this case).
    return KEstimateResult(
        k_hat=_ml_estimate(empty_fractions, s),
        steps_used=MAX_KEST_STEPS,
        slots_used=s * MAX_KEST_STEPS,
        empty_fractions=empty_fractions,
        transmissions=transmissions,
    )


def _ml_estimate(empty_fractions: List[float], s: int, k_max: int = 1 << 16) -> int:
    """Maximum-likelihood K from every step's empty count.

    Step ``j`` (1-based) has ``m_j = s·E_j`` empty slots out of ``s``, each
    independently empty with probability ``q_j(K) = (1 − 2^−j)^K``. The
    joint log-likelihood over a candidate grid of K is maximised directly;
    the grid is geometric, which is plenty given the estimator feeds sizing
    decisions, not exact counts.
    """
    empties = np.round(np.array(empty_fractions) * s).astype(int)
    steps = np.arange(1, empties.size + 1)
    p = 2.0 ** (-steps.astype(float))

    candidates = np.unique(
        np.concatenate(
            [
                np.arange(1, 65),
                np.geomspace(64, k_max, 160).astype(int),
            ]
        )
    )
    q = (1.0 - p)[None, :] ** candidates[:, None]  # (n_candidates, n_steps)
    q = np.clip(q, 1e-12, 1.0 - 1e-12)
    log_like = empties[None, :] * np.log(q) + (s - empties)[None, :] * np.log(1.0 - q)
    return int(candidates[int(np.argmax(log_like.sum(axis=1)))])

