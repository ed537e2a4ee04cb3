"""L1-minimization sparse recovery (basis pursuit) via linear programming.

This is the solver family the paper uses for identification Stage 3
(Eq. 6): ``min ‖z‖₁ s.t. A·z = y``. We express the real-valued problem,
noiseless or noise-tolerant (BPDN-∞), as one M-row standard LP

    min  1ᵀu + 1ᵀv        over u, v ≥ 0,  −ε ≤ s ≤ ε,  z = u − v
    s.t. A(u − v) + s = y

so the band ``|Az − y| ≤ ε`` is a bounded slack per measurement rather
than 2M inequality rows, and ε = 0 fixes the slack at 0 (exact basis
pursuit). :func:`scipy.optimize.linprog` with ``method="highs"`` solves it
by HiGHS's dual simplex; its interior-point solver was about 2× slower on
identification-shaped instances. Presolve is off: it removes nothing from
this form and costs about a fifth of the solve. The backscatter
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

    # z = u - v and A z + s = y, with the slack s bounded by the band.
    cost = np.concatenate([np.ones(2 * n), np.zeros(m)])
    bounds = np.empty((2 * n + m, 2))
    bounds[: 2 * n] = (0.0, np.inf)
    bounds[2 * n :] = (-eps, eps)
    result = linprog(
        cost,
        A_eq=np.hstack([a, -a, np.eye(m)]),
        b_eq=yv,
        bounds=bounds,
        method="highs",
        options={"presolve": False},
    )
    if not result.success:
        raise RecoveryError(f"linprog failed: {result.message}")
    solution = result.x
    return solution[:n] - solution[n : 2 * n]


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
