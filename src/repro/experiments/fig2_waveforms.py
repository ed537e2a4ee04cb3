"""Fig. 2: received magnitude traces of one tag vs a two-tag collision.

A single OOK tag produces a two-level magnitude trace; two colliding tags
produce four levels ("00", "01", "10", "11"). ``run`` synthesises both
traces at the paper's parameters (80 kbps, 500 µs window) and verifies the
level structure by 1-D k-means clustering of the magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.signal import collision_trace, ook_waveform
from repro.utils.bits import random_bits

__all__ = ["WaveformResult", "count_levels", "run", "render"]


@dataclass(frozen=True)
class WaveformResult:
    """The two traces plus their detected magnitude-level counts."""

    time_us: np.ndarray
    single_trace_magnitude: np.ndarray
    collision_trace_magnitude: np.ndarray
    single_levels: int
    collision_levels: int


def count_levels(
    magnitudes: np.ndarray, max_levels: int = 6, separation: float = 4.0
) -> int:
    """Number of distinct magnitude levels via 1-D k-means + separation test.

    For each k the trace is Lloyd-clustered; a clustering is *valid* when
    every pair of adjacent centres is separated by at least ``separation``
    times the larger within-cluster standard deviation — i.e. the levels
    are resolvable, not an artificial split of one noisy level (splitting a
    single Gaussian yields centres only ~1.6σ apart, far below the
    threshold). The largest valid k is the level count.
    """
    mags = np.sort(np.asarray(magnitudes, dtype=float))
    if mags.size == 0:
        raise ValueError("empty trace")

    def _fit(k: int):
        centers = np.quantile(mags, (np.arange(k) + 0.5) / k)
        assignment = np.zeros(mags.size, dtype=int)
        for _ in range(30):
            assignment = np.argmin(np.abs(mags[:, None] - centers[None, :]), axis=1)
            new_centers = np.array(
                [mags[assignment == j].mean() if np.any(assignment == j) else centers[j]
                 for j in range(k)]
            )
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        assignment = np.argmin(np.abs(mags[:, None] - centers[None, :]), axis=1)
        return centers, assignment

    min_mass = max(2, int(0.04 * mags.size))
    best_k = 1
    for k in range(2, max_levels + 1):
        centers, assignment = _fit(k)
        order = np.argsort(centers)
        centers = centers[order]
        stds, masses = [], []
        for j in order:
            members = mags[assignment == j]
            stds.append(float(members.std()) if members.size > 1 else 0.0)
            masses.append(int(members.size))
        # A genuine level carries real probability mass; a splinter cluster
        # of distribution-tail points does not.
        valid = all(m >= min_mass for m in masses)
        for i in range(k - 1):
            if not valid:
                break
            gap = centers[i + 1] - centers[i]
            spread = max(stds[i], stds[i + 1], 1e-12)
            if gap < separation * spread:
                valid = False
        if valid:
            best_k = k
    return best_k


def run(
    bit_rate_hz: float = 80_000.0,
    window_us: float = 500.0,
    samples_per_bit: int = 50,
    noise_std: float = 0.004,
    seed: int = 2,
) -> WaveformResult:
    """Generate the Fig. 2 traces.

    Channels are chosen with distinct magnitudes (as the paper's two tags
    had) so the collision's four levels are visibly separated.
    """
    rng = np.random.default_rng(seed)
    n_bits = int(round(window_us * 1e-6 * bit_rate_hz))
    bits_a = random_bits(n_bits, rng)
    bits_b = random_bits(n_bits, rng)

    h_a = 0.13 * np.exp(1j * 0.4)
    h_b = 0.07 * np.exp(1j * 1.1)

    single = ook_waveform(bits_a, h_a, samples_per_bit, noise_std=noise_std, rng=rng)
    collision = collision_trace(
        np.stack([bits_a, bits_b]), [h_a, h_b], samples_per_bit, noise_std=noise_std, rng=rng
    )

    n_samples = n_bits * samples_per_bit
    time_us = np.arange(n_samples) * (1e6 / (bit_rate_hz * samples_per_bit))
    single_mag = np.abs(single)
    collision_mag = np.abs(collision)
    return WaveformResult(
        time_us=time_us,
        single_trace_magnitude=single_mag,
        collision_trace_magnitude=collision_mag,
        single_levels=count_levels(single_mag),
        collision_levels=count_levels(collision_mag),
    )


def render(result: WaveformResult) -> str:
    """Report the level structure Fig. 2 visualises."""
    lines = [
        "Fig. 2 reproduction: received magnitude level structure",
        f"  single tag  : {result.single_levels} levels "
        f"(paper: 2 — one per bit value)",
        f"  two-tag collision: {result.collision_levels} levels "
        f"(paper: 4 — '00', '01', '10', '11')",
        f"  trace length: {result.time_us[-1]:.0f} us, "
        f"{result.time_us.size} samples",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run()))
