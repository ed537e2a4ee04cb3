"""Collision constellations.

When K tags reflect concurrently, the noiseless received symbol takes one of
``2^K`` values ``Σ_i h_i·b_i`` (plus the CW offset) — a constellation whose
density grows with the number of colliders (paper Fig. 3). These helpers
enumerate that constellation, measure its minimum distance (which governs
decodability at a given noise level) and classify received samples to their
nearest point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Constellation", "collision_constellation", "min_distance", "nearest_point"]


@dataclass(frozen=True)
class Constellation:
    """Enumerated collision constellation for K single-tap channels.

    Attributes
    ----------
    points:
        ``(2^K,)`` complex array; ``points[v]`` is the symbol produced when
        the colliding bit-vector, read as a big-endian integer, equals ``v``.
    labels:
        ``(2^K, K)`` uint8 matrix of the corresponding bit vectors.
    """

    points: np.ndarray
    labels: np.ndarray

    @property
    def k(self) -> int:
        """Number of colliding tags."""
        return int(self.labels.shape[1])

    @property
    def size(self) -> int:
        """Number of constellation points (2^K)."""
        return int(self.points.size)

    def min_distance(self) -> float:
        """Smallest pairwise distance between points (0 if degenerate)."""
        return min_distance(self.points)

    def decode(self, samples: np.ndarray) -> np.ndarray:
        """Map received complex samples to the bit-vectors of their nearest points.

        Returns an ``(n, K)`` uint8 matrix.
        """
        samples = np.atleast_1d(np.asarray(samples, dtype=complex))
        idx = nearest_point(samples, self.points)
        return self.labels[idx]


def collision_constellation(channels: Sequence[complex], cw_level: complex = 0.0) -> Constellation:
    """Enumerate all ``2^K`` noiseless symbols for K colliding channels.

    ``cw_level`` offsets every point by the reader's CW leakage, matching
    what a receiver that does not subtract the carrier would observe
    (Fig. 3 plots raw IQ, hence its off-origin cluster positions).
    """
    h = np.asarray(channels, dtype=complex)
    k = h.size
    if k == 0:
        raise ValueError("need at least one channel")
    if k > 16:
        raise ValueError("refusing to enumerate more than 2^16 constellation points")
    # Row v is v's K bits, most significant first: one shift-and-mask.
    shifts = np.arange(k - 1, -1, -1)
    labels = ((np.arange(1 << k)[:, None] >> shifts) & 1).astype(np.uint8)
    points = labels.astype(float) @ h + cw_level
    return Constellation(points=points, labels=labels)


def min_distance(points: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance among complex points."""
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size < 2:
        return float("inf")
    diff = np.abs(pts[:, None] - pts[None, :])
    diff[np.diag_indices(pts.size)] = np.inf
    return float(diff.min())


def nearest_point(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the nearest constellation point for each sample."""
    samples = np.atleast_1d(np.asarray(samples, dtype=complex))
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("constellation is empty")
    return np.argmin(np.abs(samples[:, None] - pts[None, :]), axis=1)
