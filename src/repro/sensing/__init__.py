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

# The solver function ``basis_pursuit`` is not re-exported: it would shadow
# the submodule of the same name, so ``import repro.sensing.basis_pursuit``
# would bind the function. Import it from its module.
from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sensing.basis_pursuit": ("basis_pursuit_complex",),
        "repro.sensing.greedy": ("cosamp", "iht", "omp"),
        "repro.sensing.matrices": ("bernoulli_matrix",),
        "repro.sensing.recovery": ("RecoveryResult", "recover_sparse", "support_from_estimate"),
    },
)
