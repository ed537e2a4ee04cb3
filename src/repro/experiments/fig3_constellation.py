"""Fig. 3: collision constellations densify with concurrent transmitters.

One tag yields a 2-point constellation (like BPSK); two colliding tags a
4-point one (like 4QAM); K tags ``2^K`` points. ``run`` builds the
constellations at Fig. 2's channels, clusters noisy received samples and
verifies each cluster is centred on its ideal point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.constellation import Constellation, collision_constellation, nearest_point
from repro.phy.signal import CW_LEVEL, received_symbols
from repro.utils.bits import random_bits

__all__ = ["ConstellationResult", "run", "render"]


@dataclass(frozen=True)
class ConstellationResult:
    """Constellations and the sample-cluster fidelity check."""

    single: Constellation
    double: Constellation
    samples_single: np.ndarray
    samples_double: np.ndarray
    single_cluster_error: float
    double_cluster_error: float

    @property
    def single_points(self) -> int:
        return self.single.size

    @property
    def double_points(self) -> int:
        return self.double.size


def _cluster_error(samples: np.ndarray, constellation: Constellation) -> float:
    """Max |cluster centroid − ideal point| over occupied clusters."""
    idx = nearest_point(samples, constellation.points)
    worst = 0.0
    for point_index in np.unique(idx):
        centroid = samples[idx == point_index].mean()
        worst = max(worst, abs(centroid - constellation.points[point_index]))
    return float(worst)


def run(n_symbols: int = 2_000, noise_std: float = 0.006, seed: int = 3) -> ConstellationResult:
    """Build 1-tag and 2-tag constellations with noisy received samples."""
    rng = np.random.default_rng(seed)
    h_a = 0.13 * np.exp(1j * 0.4)
    h_b = 0.07 * np.exp(1j * 1.1)

    single = collision_constellation([h_a], cw_level=CW_LEVEL)
    double = collision_constellation([h_a, h_b], cw_level=CW_LEVEL)

    bits_a = random_bits(n_symbols, rng)
    bits_b = random_bits(n_symbols, rng)
    samples_single = (
        received_symbols(bits_a[:, None], [h_a], noise_std=noise_std, rng=rng) + CW_LEVEL
    )
    samples_double = (
        received_symbols(np.stack([bits_a, bits_b], axis=1), [h_a, h_b],
                         noise_std=noise_std, rng=rng)
        + CW_LEVEL
    )
    return ConstellationResult(
        single=single,
        double=double,
        samples_single=samples_single,
        samples_double=samples_double,
        single_cluster_error=_cluster_error(samples_single, single),
        double_cluster_error=_cluster_error(samples_double, double),
    )


def render(result: ConstellationResult) -> str:
    lines = [
        "Fig. 3 reproduction: collision constellations",
        f"  single tag : {result.single_points} points, "
        f"min distance {result.single.min_distance():.4f} "
        f"(cluster error {result.single_cluster_error:.4f})",
        f"  two tags   : {result.double_points} points, "
        f"min distance {result.double.min_distance():.4f} "
        f"(cluster error {result.double_cluster_error:.4f})",
        "  (paper: 2 points vs 4 points — BPSK vs 4QAM-like densification)",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run()))
