"""Sparse binary sensing matrices.

In Buzz the sensing matrix is *physical*: entry ``A[j, i] = 1`` means tag
``i`` reflects during slot ``j``. Tags generate their own column from their
id, so the only matrices realisable on the air are binary, and sparsity
(few ones per row) is what keeps both decoding cheap and collisions
shallow. These constructors exist for controlled experiments and tests;
protocol code builds the same matrices through
:func:`repro.coding.prng.transmit_pattern_matrix` so the tag and reader
views stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_positive_int, ensure_probability

__all__ = [
    "bernoulli_matrix",
    "column_weight_matrix",
    "coherence",
    "expected_collisions_per_slot",
]


def bernoulli_matrix(
    n_rows: int, n_cols: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. Bernoulli(p) binary matrix — the on-air pattern model."""
    ensure_positive_int(n_rows, "n_rows")
    ensure_positive_int(n_cols, "n_cols")
    ensure_probability(p, "p")
    return (rng.random((n_rows, n_cols)) < p).astype(np.uint8)


def column_weight_matrix(
    n_rows: int, n_cols: int, weight: int, rng: np.random.Generator
) -> np.ndarray:
    """Binary matrix with exactly ``weight`` ones per column.

    Fixed column weight is the classic construction for sparse-recovery
    guarantees via expansion [Berinde et al. 2008], and models a tag that
    transmits a fixed number of times.
    """
    ensure_positive_int(n_rows, "n_rows")
    ensure_positive_int(n_cols, "n_cols")
    ensure_positive_int(weight, "weight")
    if weight > n_rows:
        raise ValueError("column weight cannot exceed the number of rows")
    matrix = np.zeros((n_rows, n_cols), dtype=np.uint8)
    for col in range(n_cols):
        rows = rng.choice(n_rows, size=weight, replace=False)
        matrix[rows, col] = 1
    return matrix


def coherence(matrix: np.ndarray) -> float:
    """Mutual coherence: max |<a_i, a_j>| / (|a_i||a_j|) over column pairs.

    Lower coherence → better sparse recovery. All-zero columns are skipped
    (they carry no information and would make the ratio undefined).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("need a 2-D matrix with at least two columns")
    norms = np.linalg.norm(a, axis=0)
    keep = norms > 0
    a = a[:, keep]
    norms = norms[keep]
    if a.shape[1] < 2:
        return 0.0
    gram = np.abs(a.T @ a) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def expected_collisions_per_slot(n_active: int, p: float) -> float:
    """Expected number of concurrent reflectors per slot, ``n_active · p``.

    Buzz tunes ``p`` so this stays small (a *sparse* code): each received
    symbol is then a shallow collision that the BP decoder can peel.
    """
    ensure_positive_int(n_active, "n_active")
    ensure_probability(p, "p")
    return float(n_active * p)
