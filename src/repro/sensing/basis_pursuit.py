"""L1-minimization sparse recovery (basis pursuit) via linear programming.

This is the solver family the paper uses for identification Stage 3
(Eq. 6): ``min ‖z‖₁ s.t. A·z = y``, solved with an interior-point method.
We express the real-valued problem as the standard LP

    min  1ᵀu + 1ᵀv        over u, v ≥ 0,  z = u − v
    s.t. A(u − v) = y                    (noiseless), or
         |A(u − v) − y| ≤ ε elementwise  (noise-tolerant BPDN-∞)

and hand it to :func:`scipy.optimize.linprog` (HiGHS). The backscatter
measurements are complex while A is real binary, so the complex problem
splits exactly into two independent real problems on Re(y) and Im(y)
(:func:`basis_pursuit_complex`).
"""

from __future__ import annotations


import numpy as np

__all__ = ["basis_pursuit", "basis_pursuit_complex"]


class RecoveryError(RuntimeError):
    """Raised when the LP solver fails to produce a solution."""


def basis_pursuit(
    matrix: np.ndarray,
    y: np.ndarray,
    eps: float = 0.0,
) -> np.ndarray:
    """Solve ``min ‖z‖₁`` subject to ``A z = y`` (or ``‖Az − y‖∞ ≤ eps``).

    Parameters
    ----------
    matrix:
        Real ``(M, N)`` sensing matrix.
    y:
        Real ``(M,)`` measurements.
    eps:
        Per-measurement tolerance. 0 gives exact basis pursuit; for noisy
        measurements pass a few noise standard deviations.

    Returns
    -------
    ``(N,)`` real solution vector.
    """
    a = np.asarray(matrix, dtype=float)
    yv = np.asarray(y, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    m, n = a.shape
    if yv.size != m:
        raise ValueError(f"y has length {yv.size}, expected {m}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    # Imported here: scipy.optimize costs about 0.4 s, and only
    # compressive-sensing identification needs it.
    from scipy.optimize import linprog

    cost = np.ones(2 * n)
    # z = u - v  →  A z = [A, -A] [u; v]
    stacked = np.hstack([a, -a])
    if eps == 0.0:
        result = linprog(
            cost,
            A_eq=stacked,
            b_eq=yv,
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
    else:
        # |Az - y| <= eps  →  Az <= y + eps  and  -Az <= -(y - eps)
        a_ub = np.vstack([stacked, -stacked])
        b_ub = np.concatenate([yv + eps, -(yv - eps)])
        result = linprog(
            cost,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
    if not result.success:
        raise RecoveryError(f"linprog failed: {result.message}")
    solution = result.x
    return solution[:n] - solution[n:]


def basis_pursuit_complex(
    matrix: np.ndarray,
    y: np.ndarray,
    eps: float = 0.0,
) -> np.ndarray:
    """Basis pursuit for complex measurements against a real matrix.

    Because A is real, Re/Im decouple: two independent real programs whose
    solutions recombine into the complex estimate. ``eps`` applies to each
    component separately (noise std per component is ``noise_std/√2``).
    """
    yv = np.asarray(y).ravel()
    z_real = basis_pursuit(matrix, np.real(yv), eps)
    z_imag = basis_pursuit(matrix, np.imag(yv), eps)
    return z_real + 1j * z_imag
