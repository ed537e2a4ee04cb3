"""Fig. 10: total data-transfer time vs number of tags.

TDMA and CDMA are pinned at 1 bit/symbol, so their transfer time is a
fixed staircase in K (with CDMA's bump at K = 12 from Walsh-16). Buzz's
rateless code finishes when everything decodes — roughly half the time on
average (a 2× aggregate-rate gain).

Runs on the unified scheme engine: pass ``jobs`` to evaluate the campaign
grid on a process pool, ``schemes`` to restrict the comparison, and
``scenario`` (a name from :data:`repro.network.scenarios.SCENARIO_NAMES`
or a ``k → Scenario`` callable) to reproduce the figure on a different
location class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.common import format_table
from repro.engine import SCHEMES, CampaignSpec, run_campaign
from repro.network.metrics import UplinkMetrics, uplink_metrics_from_runs
from repro.network.scenarios import (
    ScenarioLike,
    default_uplink_scenario,
    resolve_scenario_factory,
)

__all__ = ["TransferTimeResult", "run", "render"]


@dataclass(frozen=True)
class TransferTimeResult:
    """Mean transfer time (ms) per scheme per K."""

    tag_counts: List[int]
    metrics: Dict[int, Dict[str, UplinkMetrics]]
    schemes: List[str] = field(default_factory=lambda: list(SCHEMES))

    def mean_time_ms(self, scheme: str, k: int) -> float:
        return self.metrics[k][scheme].mean_duration_ms

    def buzz_speedup_over(self, scheme: str) -> float:
        """Mean of per-K time ratios (scheme / buzz) — the paper's ~2×."""
        ratios = [
            self.metrics[k][scheme].mean_duration_ms / self.metrics[k]["buzz"].mean_duration_ms
            for k in self.tag_counts
        ]
        return float(np.mean(ratios))


def run(
    tag_counts: Sequence[int] = (4, 8, 12, 16),
    n_locations: int = 10,
    n_traces: int = 5,
    seed: int = 10,
    schemes: Sequence[str] = SCHEMES,
    scenario: ScenarioLike = None,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> TransferTimeResult:
    """Run the Fig. 10 campaign across K."""
    factory = resolve_scenario_factory(scenario, default_uplink_scenario)
    metrics: Dict[int, Dict[str, UplinkMetrics]] = {}
    for k in tag_counts:
        spec = CampaignSpec(
            scenario=factory(k),
            root_seed=seed + k,
            n_locations=n_locations,
            n_traces=n_traces,
            schemes=schemes,
        )
        campaign = run_campaign(
            spec,
            jobs=jobs,
            cache_dir=cache_dir,
            backend=backend,
            on_cell=on_cell,
        )
        metrics[k] = {
            scheme: uplink_metrics_from_runs(scheme, campaign.by_scheme(scheme))
            for scheme in schemes
        }
    return TransferTimeResult(
        tag_counts=list(tag_counts), metrics=metrics, schemes=list(schemes)
    )


def render(result: TransferTimeResult) -> str:
    rows = [
        (k, *(result.mean_time_ms(s, k) for s in result.schemes))
        for k in result.tag_counts
    ]
    table = format_table(["K"] + [f"{s.upper()} ms" for s in result.schemes], rows)
    baselines = [s for s in result.schemes if s != "buzz"]
    if "buzz" not in result.schemes or not baselines:
        return table
    speedups = ", ".join(
        f"over {s.upper()} = {result.buzz_speedup_over(s):.2f}x" for s in baselines
    )
    return table + f"\nFig. 10 reproduction: Buzz speedup {speedups} (paper: ~2x)"


if __name__ == "__main__":
    print(render(run()))
