"""Compressive-sensing substrate.

Buzz's identification Stage 3 recovers a K-sparse complex vector (active
temporary ids and their channels) from ``M ≈ K·log a`` collision symbols
(Eq. 5/6). This package provides:

* :mod:`repro.sensing.matrices` — the Bernoulli model of the sparse
  binary sensing matrix (the tags' transmit patterns *are* the matrix);
* :mod:`repro.sensing.basis_pursuit` — the paper's solver family: L1
  minimization as one M-row linear program (the noise band is a bounded
  slack per measurement) solved by HiGHS's dual simplex, both noiseless
  (basis pursuit) and noise-tolerant (BPDN);
* :mod:`repro.sensing.greedy` — OMP / CoSaMP / IHT greedy alternatives used
  in the solver ablation;
* :mod:`repro.sensing.recovery` — a solver-agnostic front end returning the
  recovered vector, its support and diagnostics.
"""

# Eager, unlike the other packages: ``basis_pursuit`` names both a submodule
# and a function, and a lazily filled name would turn into the module
# whenever the submodule loads. Nothing that declares a campaign imports
# this package.
from repro.sensing.basis_pursuit import basis_pursuit, basis_pursuit_complex
from repro.sensing.greedy import cosamp, iht, omp
from repro.sensing.matrices import bernoulli_matrix
from repro.sensing.recovery import RecoveryResult, recover_sparse, support_from_estimate

__all__ = [
    "RecoveryResult",
    "basis_pursuit",
    "basis_pursuit_complex",
    "bernoulli_matrix",
    "cosamp",
    "iht",
    "omp",
    "recover_sparse",
    "support_from_estimate",
]
