"""Fig. 11: undecoded messages vs number of tags.

On the same traces as Fig. 10: Buzz delivers everything (rateless), TDMA
loses a few messages despite Miller-4, CDMA is the least reliable — with
the K = 12 dip caused by its forced Walsh-16 spreading (extra processing
gain relative to K = 8's Walsh-8).

Runs on the unified scheme engine; see :mod:`repro.experiments.
fig10_transfer_time` for the ``jobs`` / ``schemes`` / ``scenario`` knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.common import format_table
from repro.engine import SCHEMES, CampaignSpec, run_campaign
from repro.network.metrics import UplinkMetrics, uplink_metrics_from_runs
from repro.network.scenarios import (
    ScenarioLike,
    error_prone_scenario,
    resolve_scenario_factory,
)

__all__ = ["MessageErrorResult", "run", "render"]


@dataclass(frozen=True)
class MessageErrorResult:
    """Mean undecoded tags per scheme per K."""

    tag_counts: List[int]
    metrics: Dict[int, Dict[str, UplinkMetrics]]
    schemes: List[str] = field(default_factory=lambda: list(SCHEMES))

    def mean_undecoded(self, scheme: str, k: int) -> float:
        return self.metrics[k][scheme].mean_undecoded


def run(
    tag_counts: Sequence[int] = (4, 8, 12, 16),
    n_locations: int = 10,
    n_traces: int = 5,
    seed: int = 11,
    schemes: Sequence[str] = SCHEMES,
    scenario: ScenarioLike = None,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> MessageErrorResult:
    """Run the Fig. 11 campaign across K."""
    factory = resolve_scenario_factory(scenario, error_prone_scenario)
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
    return MessageErrorResult(
        tag_counts=list(tag_counts), metrics=metrics, schemes=list(schemes)
    )


def render(result: MessageErrorResult) -> str:
    rows = [
        (k, *(result.mean_undecoded(s, k) for s in result.schemes))
        for k in result.tag_counts
    ]
    table = format_table(
        ["K"] + [f"{s.upper()} undecoded" for s in result.schemes], rows
    )
    if not {"buzz", "tdma", "cdma"} <= set(result.schemes):
        return table  # the paper's claim is about the full comparison
    summary = (
        "\nFig. 11 reproduction (paper: Buzz = 0 for all K; TDMA small; "
        "CDMA worst, dipping at K=12 from Walsh-16)"
    )
    return table + summary


if __name__ == "__main__":
    print(render(run()))
