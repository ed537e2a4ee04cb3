"""Solver-agnostic sparse recovery front end.

The identification protocol (Stage 3) just wants "which entries are active
and what are their channels" — this module wraps the basis-pursuit and
greedy solvers behind one call and owns the support-selection rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sensing.basis_pursuit import RecoveryError, basis_pursuit_complex
from repro.sensing.greedy import cosamp, iht, omp

__all__ = ["RecoveryResult", "recover_sparse", "support_from_estimate"]

_METHODS = ("bp", "omp", "cosamp", "iht")
#: An active entry's magnitude is at least this share of the largest one.
_RELATIVE_FLOOR = 0.05


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a sparse recovery.

    Attributes
    ----------
    estimate:
        Full-length complex estimate ``ẑ``.
    support:
        Sorted indices judged active.
    residual_norm:
        ``‖A ẑ_support − y‖₂`` after restricting to the support.
    method:
        Solver that produced the estimate.
    """

    estimate: np.ndarray
    support: np.ndarray
    residual_norm: float
    method: str

    @property
    def sparsity(self) -> int:
        """Number of entries judged active."""
        return int(self.support.size)

    def channels(self) -> np.ndarray:
        """Complex channel estimates on the support."""
        return self.estimate[self.support]


def support_from_estimate(
    estimate: np.ndarray,
    noise_std: float = 0.0,
    max_support: Optional[int] = None,
) -> np.ndarray:
    """Pick the active set from a dense estimate.

    An entry is active when its magnitude clears both an absolute noise
    floor (``4·noise_std/√2`` per complex sample — conservative against
    estimation noise leaking into empty coordinates) and a relative floor
    (:data:`_RELATIVE_FLOOR` × the largest magnitude, which adapts to the overall
    signal scale). ``max_support`` optionally caps the set at the largest
    entries — used when K is known.
    """
    mags = np.abs(np.asarray(estimate))
    if mags.size == 0:
        return np.zeros(0, dtype=int)
    peak = float(mags.max())
    if peak == 0.0:
        return np.zeros(0, dtype=int)
    threshold = max(_RELATIVE_FLOOR * peak, 4.0 * noise_std / np.sqrt(2.0))
    support = np.flatnonzero(mags >= threshold)
    if max_support is not None and support.size > max_support:
        order = np.argsort(mags[support])[::-1]
        support = support[order[:max_support]]
    return np.sort(support)


def recover_sparse(
    matrix: np.ndarray,
    y: np.ndarray,
    sparsity: int,
    method: str = "bp",
    noise_std: float = 0.0,
    max_support: Optional[int] = None,
) -> RecoveryResult:
    """Recover a sparse complex vector from ``y ≈ A z``.

    Parameters
    ----------
    matrix:
        Real binary ``(M, N)`` sensing matrix (the tags' transmit patterns).
    y:
        ``(M,)`` complex received symbols.
    sparsity:
        Expected number of non-zeros (the reader's K̂); greedy solvers use
        it as their target, basis pursuit only for support capping.
    method:
        ``"bp"`` (L1 minimisation as one M-row LP solved by HiGHS's dual
        simplex, the paper's solver family), ``"omp"``, ``"cosamp"`` or
        ``"iht"``.
    noise_std:
        Std of the complex measurement noise; sets the BPDN tolerance and
        the support threshold.
    max_support:
        Optional hard cap on the support size (defaults to ``2·sparsity``
        to allow slack in K̂ without letting noise build a huge support).
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {_METHODS}")
    a = np.asarray(matrix, dtype=float)
    yv = np.asarray(y, dtype=complex).ravel()
    if max_support is None:
        max_support = 2 * sparsity

    if method == "bp":
        eps = 2.0 * noise_std / np.sqrt(2.0) if noise_std > 0 else 0.0
        # With more measurements than candidate columns the ∞-norm band can
        # be infeasible for an unlucky noise draw — widen it geometrically.
        for _ in range(4):
            try:
                estimate = basis_pursuit_complex(a, yv, eps=eps)
                break
            except RecoveryError:
                eps = max(eps, noise_std / np.sqrt(2.0)) * 2.0
        else:
            estimate = basis_pursuit_complex(a, yv, eps=eps * 2.0)
    elif method == "omp":
        estimate = omp(a, yv, sparsity=max_support)
    elif method == "cosamp":
        estimate = cosamp(a, yv, sparsity=max_support)
    else:
        estimate = iht(a, yv, sparsity=max_support)

    support = support_from_estimate(estimate, noise_std=noise_std, max_support=max_support)

    def _polish(sup: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        z = np.zeros_like(estimate)
        if sup.size:
            coef, *_ = np.linalg.lstsq(a[:, sup], yv, rcond=None)
            z[sup] = coef
        return z, yv - a @ z

    polished, residual = _polish(support)

    # Residual-driven augmentation: an L1 solver with a noise-tolerant band
    # legitimately zeroes coefficients comparable to the band, which drops
    # *weak* tags. If the residual power is inconsistent with pure noise,
    # greedily admit the most correlated remaining column and re-polish.
    if noise_std > 0:
        expected = noise_std**2 * a.shape[0]
        while (
            support.size < min(max_support, a.shape[1])
            and float(np.vdot(residual, residual).real) > 1.5 * expected
        ):
            scores = np.abs(a.T @ residual)
            scores[support] = -1.0
            candidate = int(np.argmax(scores))
            if scores[candidate] <= 0:
                break
            new_support = np.sort(np.append(support, candidate))
            new_polished, new_residual = _polish(new_support)
            # Accept only if the newcomer looks like a real tag, not noise
            # (LS coefficient noise on a half-weight column is ~σ/√M, so
            # 2.5·σ/√2 is still many standard errors away).
            if abs(new_polished[candidate]) < 2.5 * noise_std / np.sqrt(2.0):
                break
            support, polished, residual = new_support, new_polished, new_residual

        # Backward elimination: a spurious support entry (e.g. from two
        # near-identical candidate columns) barely explains any energy, so
        # removing it barely moves the residual; a real tag's removal costs
        # ≈ |h|²·(column weight). Prune entries whose removal is cheap.
        improved = True
        while improved and support.size > 0:
            improved = False
            base = float(np.vdot(residual, residual).real)
            for position in range(support.size):
                trial_support = np.delete(support, position)
                trial_polished, trial_residual = _polish(trial_support)
                increase = float(np.vdot(trial_residual, trial_residual).real) - base
                if increase < 9.0 * noise_std**2:
                    support, polished, residual = (
                        trial_support,
                        trial_polished,
                        trial_residual,
                    )
                    improved = True
                    break

    return RecoveryResult(
        estimate=polished,
        support=support,
        residual_norm=float(np.linalg.norm(residual)),
        method=method,
    )
