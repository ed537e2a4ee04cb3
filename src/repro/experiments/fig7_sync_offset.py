"""Fig. 7: CDF of tags' initial synchronization offsets.

The paper measures the spread in transmission start times when multiple
tags answer the same query: 90th percentile 0.3 µs (Alien commercial) and
0.5 µs (Moo), maximum < 1 µs — about 6.5 % of an 80 kbps bit, negligible
for Buzz. ``run`` draws offsets from the calibrated profiles across the
paper's grid (20 tags per type, 2–8 concurrent per trial) and reports the
CDF and the same summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.phy.sync import COMMERCIAL_RFID_SYNC, MOO_RFID_SYNC
from repro.utils.stats import empirical_cdf

__all__ = ["SyncOffsetResult", "run", "render"]


@dataclass(frozen=True)
class SyncOffsetResult:
    """Offset samples and CDFs per tag family (microseconds)."""

    samples_us: Dict[str, np.ndarray]
    cdfs: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def p90_us(self, family: str) -> float:
        return float(np.percentile(self.samples_us[family], 90))

    def max_us(self, family: str) -> float:
        return float(self.samples_us[family].max())

    def bit_fraction_at_rate(self, family: str, bit_rate_hz: float = 64_000.0) -> float:
        """Worst-case offset as a fraction of a bit at the default rate."""
        return self.max_us(family) * 1e-6 * bit_rate_hz


def run(n_tags_per_type: int = 20, trials: int = 40, seed: int = 7) -> SyncOffsetResult:
    """Draw concurrent-reply offsets for both tag families.

    Each trial activates 2–8 random tags concurrently (the paper's grid)
    and records the offsets of each tag's transmission start relative to
    the earliest one.
    """
    rng = np.random.default_rng(seed)
    samples: Dict[str, np.ndarray] = {}
    for profile in (COMMERCIAL_RFID_SYNC, MOO_RFID_SYNC):
        collected = []
        for _ in range(trials):
            n_concurrent = int(rng.integers(2, 9))
            offsets = profile.sample(n_concurrent, rng)
            # Offsets are measured between tags, relative to the earliest.
            collected.extend((offsets - offsets.min()).tolist())
        samples[profile.name] = np.array(collected) * 1e6  # → µs
    cdfs = {name: empirical_cdf(vals) for name, vals in samples.items()}
    return SyncOffsetResult(samples_us=samples, cdfs=cdfs)


def render(result: SyncOffsetResult) -> str:
    lines = ["Fig. 7 reproduction: initial synchronization offset CDF"]
    for family in ("commercial", "moo"):
        lines.append(
            f"  {family:>10}: p90 = {result.p90_us(family):.2f} us, "
            f"max = {result.max_us(family):.2f} us, "
            f"worst-case bit fraction @64kbps = "
            f"{100 * result.bit_fraction_at_rate(family):.1f} %"
        )
    lines.append("  (paper: p90 0.3 us commercial / 0.5 us Moo, max < 1 us)")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run()))
