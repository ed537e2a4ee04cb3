"""Sparse binary sensing matrices.

In Buzz the sensing matrix is *physical*: entry ``A[j, i] = 1`` means tag
``i`` reflects during slot ``j``. Tags generate their own column from their
id, so the only matrices realisable on the air are binary, and sparsity
(few ones per row) is what keeps both decoding cheap and collisions
shallow. :func:`bernoulli_matrix` builds that model for controlled
experiments (the solver tests and benchmark); protocol code builds the
same matrices through
:func:`repro.coding.prng.transmit_pattern_matrix` so the tag and reader
views stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_positive_int, ensure_probability

__all__ = ["bernoulli_matrix"]


def bernoulli_matrix(
    n_rows: int, n_cols: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. Bernoulli(p) binary matrix — the on-air pattern model."""
    ensure_positive_int(n_rows, "n_rows")
    ensure_positive_int(n_cols, "n_cols")
    ensure_probability(p, "p")
    return (rng.random((n_rows, n_cols)) < p).astype(np.uint8)

