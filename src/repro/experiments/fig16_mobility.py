"""Fig. 16 (repo extension): sessions under mobility — drift × churn sweep.

The paper's evaluation holds channels and population fixed per session; its
motivating deployments (conveyors, carts, portals) do not. This driver
sweeps the two mobility axes the
:class:`~repro.phy.channel.MobilityModel` pins — channel drift rate and
tag churn rate — and compares three ways of running a complete session on
each grid point:

* ``buzz-e2e`` — the static end-to-end session: identify once, then spend
  the whole data phase on those (increasingly stale) estimates;
* ``buzz-adaptive`` — a :class:`~repro.engine.session.SessionPipeline`
  with the stall monitor armed: re-identify mid-session when the data
  phase's verification stalls, splicing fresh estimates into the decoder
  view;
* ``buzz`` — the oracle bound: genie ids and genie channels, no mobility
  (the §9 setup).

The figure of merit is **verified-message goodput** — messages actually
delivered per second of session airtime — the quantity a warehouse portal
cares about. At zero drift and churn the session schemes agree only in
expectation: mobility degenerates to the static draw, but each cell's
noise stream is keyed by its scheme name (``_cell_rng_keys`` in
:mod:`repro.engine.campaign`), so ``fig16 --quick`` shows e.g. 1196
(``buzz-e2e``) against 1243 (``buzz-adaptive``) msg/s there. As drift
grows, the static session's goodput collapses (it burns its slot budget
against stale estimates) while the adaptive session pays a few cheap
identification re-runs to keep decoding.

Runs entirely on the campaign engine: ``jobs`` parallelises bit-
identically, ``cache_dir`` persists cells, ``schemes`` re-targets the
comparison (e.g. the silenced pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import format_table
from repro.engine import CampaignSpec, run_campaign
from repro.network.scenarios import mobile_scenario

__all__ = ["MobilityResult", "MOBILITY_SCHEMES", "run", "render"]

#: Static session vs adaptive session vs the oracle bound.
MOBILITY_SCHEMES = ("buzz-e2e", "buzz-adaptive", "buzz")

#: (drift_rate_hz, departure_rate_hz) grid of the full-size figure.
DRIFT_RATES = (0.0, 6.0, 12.0)
CHURN_RATES = (0.0, 4.0)


@dataclass(frozen=True)
class MobilityResult:
    """Per-(drift, churn), per-scheme session statistics.

    ``goodput`` is delivered messages per second of session airtime,
    averaged over the grid's runs. ``mean_reidentifications`` counts
    mid-session identification re-runs for every scheme that ran the
    mobility-aware session path (0.0 for a static session that never
    re-identifies); it is ``None`` for single-phase schemes and for grid
    points whose mobility degenerates to static.
    """

    n_tags: int
    grid: List[Tuple[float, float]]
    schemes: List[str]
    goodput: Dict[Tuple[float, float], Dict[str, float]]
    mean_loss: Dict[Tuple[float, float], Dict[str, float]]
    mean_duration_ms: Dict[Tuple[float, float], Dict[str, float]]
    mean_reidentifications: Dict[Tuple[float, float], Dict[str, Optional[float]]]

    def adaptive_gain(
        self,
        point: Tuple[float, float],
        adaptive: str = "buzz-adaptive",
        static: str = "buzz-e2e",
    ) -> Optional[float]:
        """Goodput ratio adaptive / static at one grid point."""
        if adaptive not in self.schemes or static not in self.schemes:
            return None
        denominator = self.goodput[point][static]
        if denominator == 0.0:
            return float("inf")
        return self.goodput[point][adaptive] / denominator


def run(
    n_tags: int = 10,
    drift_rates: Sequence[float] = DRIFT_RATES,
    churn_rates: Sequence[float] = CHURN_RATES,
    n_locations: int = 6,
    n_traces: int = 2,
    seed: int = 16,
    schemes: Sequence[str] = MOBILITY_SCHEMES,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> MobilityResult:
    """Sweep complete sessions over the drift × churn grid."""
    grid = [(float(d), float(c)) for d in drift_rates for c in churn_rates]
    goodput: Dict[Tuple[float, float], Dict[str, float]] = {}
    mean_loss: Dict[Tuple[float, float], Dict[str, float]] = {}
    mean_duration_ms: Dict[Tuple[float, float], Dict[str, float]] = {}
    mean_reident: Dict[Tuple[float, float], Dict[str, Optional[float]]] = {}

    for index, (drift, churn) in enumerate(grid):
        scenario = mobile_scenario(
            n_tags,
            drift_rate_hz=drift,
            departure_rate_hz=churn,
            name=f"fig16-k{n_tags}-d{drift:g}-c{churn:g}",
        )
        spec = CampaignSpec(
            scenario=scenario,
            root_seed=seed + index,
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
        point = (drift, churn)
        goodput[point], mean_loss[point] = {}, {}
        mean_duration_ms[point], mean_reident[point] = {}, {}
        for scheme in schemes:
            runs = campaign.by_scheme(scheme)
            goodput[point][scheme] = float(
                np.mean([(r.n_tags - r.message_loss) / r.duration_s for r in runs])
            )
            mean_loss[point][scheme] = float(np.mean([r.message_loss for r in runs]))
            mean_duration_ms[point][scheme] = (
                float(np.mean([r.duration_s for r in runs])) * 1e3
            )
            adaptive = all(r.reidentifications is not None for r in runs)
            mean_reident[point][scheme] = (
                float(np.mean([r.reidentifications for r in runs])) if adaptive else None
            )

    return MobilityResult(
        n_tags=n_tags,
        grid=grid,
        schemes=list(schemes),
        goodput=goodput,
        mean_loss=mean_loss,
        mean_duration_ms=mean_duration_ms,
        mean_reidentifications=mean_reident,
    )


def render(result: MobilityResult) -> str:
    def _cell(point, scheme) -> str:
        text = f"{result.goodput[point][scheme]:.0f}"
        reident = result.mean_reidentifications[point][scheme]
        if reident is not None and reident > 0:
            text += f" ({reident:.1f}re)"
        return text

    rows = [
        (f"{d:g}", f"{c:g}", *(_cell((d, c), s) for s in result.schemes))
        for d, c in result.grid
    ]
    headers = ["drift/s", "churn/s"] + [f"{s} msg/s" for s in result.schemes]
    lines = [format_table(headers, rows)]

    nonzero_drift = [p for p in result.grid if p[0] > 0]
    if nonzero_drift:
        worst = max(nonzero_drift)
        gain = result.adaptive_gain(worst)
        if gain is not None:
            ratio = (
                f"{gain:.1f}x the static session's verified-message goodput"
                if math.isfinite(gain)
                else "messages where the static session delivered nothing"
            )
            lines.append(
                f"\nAt drift {worst[0]:g}/s, churn {worst[1]:g}/s (K="
                f"{result.n_tags}): adaptive re-identification delivers "
                f"{ratio} "
                f"(loss {result.mean_loss[worst]['buzz-adaptive']:.1f} vs "
                f"{result.mean_loss[worst]['buzz-e2e']:.1f} messages)"
            )
    if "buzz" in result.schemes and result.grid:
        base = result.grid[0]
        lines.append(
            f"\nOracle (genie ids+channels, static field) goodput at "
            f"({base[0]:g}/s, {base[1]:g}/s): {result.goodput[base]['buzz']:.0f} msg/s "
            f"— the bound mobility erodes"
        )
    return "".join(lines)


if __name__ == "__main__":
    print(render(run()))
