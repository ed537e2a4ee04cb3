"""Fig. 14: identification time — Buzz vs Framed Slotted ALOHA.

Three protocols identify the K tags that want to transmit:

* **Buzz** — the three-stage compressive-sensing protocol (§5);
* **FSA** — the Gen-2 inventory (Q algorithm, 16-bit RN16 ids, per-tag
  ACKs);
* **FSA with K̂** — FSA seeded with Buzz's Stage-1 estimate: initial
  ``Q = log2 K̂`` and a temporary id sized for the reduced space.

The figure calls the same :func:`~repro.core.identification.identify`
and :func:`~repro.gen2.fsa.run_fsa_inventory` the end-to-end sessions
(``buzz-e2e``, ``gen2-tdma-e2e`` & co.) call, so it and the sessions
cannot drift apart. The three protocols share one generator per location,
back-to-back; FSA with K̂ reads Buzz's Stage-1 estimate and re-pays its
slots.

The paper reports a 5.5× reduction over FSA at 16 tags (4.5× over
FSA-with-K̂), and a 20–40 % gain for FSA from knowing K̂ alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import BuzzConfig
from repro.core.identification import IdentificationResult, identify
from repro.experiments.common import format_table
from repro.gen2.fsa import FsaConfig, run_fsa_inventory
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.network.scenarios import default_uplink_scenario
from repro.nodes.reader import ReaderFrontEnd
from repro.utils.rng import SeedSequenceFactory

__all__ = ["IdentificationTimeResult", "run", "render"]


@dataclass(frozen=True)
class IdentificationTimeResult:
    """Mean identification time (ms) per protocol per K, plus Buzz accuracy."""

    tag_counts: List[int]
    buzz_ms: Dict[int, float]
    fsa_ms: Dict[int, float]
    fsa_khat_ms: Dict[int, float]
    buzz_exact_fraction: Dict[int, float]

    def speedup_over_fsa(self, k: int) -> float:
        return self.fsa_ms[k] / self.buzz_ms[k]

    def speedup_over_fsa_khat(self, k: int) -> float:
        return self.fsa_khat_ms[k] / self.buzz_ms[k]

    def fsa_gain_from_khat(self, k: int) -> float:
        """Fractional improvement FSA gets from knowing K̂ (paper: 20-40 %)."""
        return 1.0 - self.fsa_khat_ms[k] / self.fsa_ms[k]


def _run_fsa_khat(
    ident: IdentificationResult, n_tags: int, rng: np.random.Generator, config: BuzzConfig
) -> float:
    """FSA seeded with Buzz's Stage-1 estimate (paper §10), in seconds.

    Pays Buzz's K-estimation slots again (the FSA reader must run Stage 1
    itself), then starts at ``Q = log2 K̂`` with an id space sized like
    Buzz's.
    """
    k_hat = max(1, ident.k_estimate.k_hat)
    stage1_s = ident.k_estimate.slots_used * GEN2_DEFAULT_TIMING.uplink_symbol_s()
    id_bits = max(6, math.ceil(math.log2(config.temp_id_space(k_hat))))
    inv = run_fsa_inventory(
        FsaConfig(
            n_tags=n_tags,
            initial_q=math.log2(max(2, k_hat)),
            id_bits=id_bits,
            ack_bits=id_bits + 2,  # the ACK echoes the shorter id
        ),
        rng,
    )
    return inv.total_time_s + stage1_s


def run(
    tag_counts: Sequence[int] = (4, 8, 12, 16),
    n_locations: int = 10,
    seed: int = 14,
    config: BuzzConfig = BuzzConfig(),
) -> IdentificationTimeResult:
    """Run all three identification protocols at each K."""
    seeds = SeedSequenceFactory(seed)
    buzz_ms: Dict[int, float] = {}
    fsa_ms: Dict[int, float] = {}
    fsa_khat_ms: Dict[int, float] = {}
    exact: Dict[int, float] = {}

    for k in tag_counts:
        scenario = default_uplink_scenario(k)
        buzz_times: List[float] = []
        fsa_times: List[float] = []
        fsa_khat_times: List[float] = []
        exact_flags = []
        for location in range(n_locations):
            pop = scenario.draw_population(seeds.stream("pop", k, location))
            front_end = ReaderFrontEnd(noise_std=pop.noise_std)
            # One generator per location: the protocols share it
            # back-to-back (the paper's "without changing the environment").
            rng = seeds.stream("run", k, location)
            ident = identify(pop.tags, front_end, rng, config=config)
            buzz_times.append(ident.duration_s * 1e3)
            fsa = run_fsa_inventory(FsaConfig(n_tags=len(pop)), rng)
            fsa_times.append(fsa.total_time_s * 1e3)
            fsa_khat_times.append(_run_fsa_khat(ident, len(pop), rng, config) * 1e3)
            exact_flags.append(1.0 if ident.exact else 0.0)

        buzz_ms[k] = float(np.mean(buzz_times))
        fsa_ms[k] = float(np.mean(fsa_times))
        fsa_khat_ms[k] = float(np.mean(fsa_khat_times))
        exact[k] = float(np.mean(exact_flags))

    return IdentificationTimeResult(
        tag_counts=list(tag_counts),
        buzz_ms=buzz_ms,
        fsa_ms=fsa_ms,
        fsa_khat_ms=fsa_khat_ms,
        buzz_exact_fraction=exact,
    )


def render(result: IdentificationTimeResult) -> str:
    rows = [
        (
            k,
            result.buzz_ms[k],
            result.fsa_ms[k],
            result.fsa_khat_ms[k],
            f"{result.speedup_over_fsa(k):.1f}x",
            f"{100 * result.buzz_exact_fraction[k]:.0f}%",
        )
        for k in result.tag_counts
    ]
    table = format_table(
        ["K", "Buzz ms", "FSA ms", "FSA+Khat ms", "speedup", "Buzz exact"], rows
    )
    k_max = result.tag_counts[-1]
    summary = (
        f"\nFig. 14 reproduction: at K={k_max}, Buzz is "
        f"{result.speedup_over_fsa(k_max):.1f}x faster than FSA "
        f"(paper: 5.5x) and {result.speedup_over_fsa_khat(k_max):.1f}x faster than "
        f"FSA-with-Khat (paper: 4.5x); Khat alone improves FSA by "
        f"{100 * result.fsa_gain_from_khat(k_max):.0f}% (paper: 20-40%)"
    )
    return table + summary


if __name__ == "__main__":
    print(render(run()))
