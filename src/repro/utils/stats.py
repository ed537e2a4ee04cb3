"""Empirical statistics helpers for experiment aggregation.

The paper reports CDFs of synchronization offsets (Fig. 7); this helper
builds them the same way for every experiment.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["empirical_cdf"]


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(x, F)`` of the empirical CDF of a sample.

    ``x`` is the sorted sample and ``F[i]`` the fraction of points ≤ ``x[i]``
    — exactly what Fig. 7 plots for synchronization offsets.
    """
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    fractions = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return arr, fractions
