"""Suite-wide pytest set-up: one BLAS thread, as ``python -m repro`` runs.

The packed decode kernel is several times slower under threaded BLAS on
its small (L, K) matrices, and the benchmark gates in ``benchmarks/``
measure it. The thread count is read when numpy is first imported, so
this must run before any test module (or plugin) imports numpy. A value
already set in the environment wins.
"""

import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before the root conftest.py could pin its BLAS "
        "threads (a pytest plugin imports it); set OPENBLAS_NUM_THREADS, "
        "OMP_NUM_THREADS and MKL_NUM_THREADS in the environment instead"
    )
