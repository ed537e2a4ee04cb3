"""Fig. 15 (repo extension): total session time vs K, end to end.

The paper evaluates identification (Fig. 14) and the data phase
(Figs. 10–13) separately; this driver sweeps the *complete sessions* the
session pipeline composes: identification (with its restarts) followed by
the data phase driven by the **recovered** ids and **estimated** channels.
Three end-to-end variants ride the scheme registry —

* ``buzz-e2e`` — three-stage CS identification → rateless data phase;
* ``silenced-e2e`` — same identification → ACK-silenced data phase;
* ``gen2-tdma-e2e`` — Gen-2 FSA inventory → TDMA transfer (today's RFID
  session) —

plus the oracle ``buzz`` scheme (genie ids + channels, the §9 setup), so
the report quantifies both the identification overhead and how much
channel-estimation error costs the decoder relative to the oracle.

Runs entirely on the campaign engine: ``jobs`` parallelises the grid
bit-identically, ``cache_dir`` persists cells, ``schemes``/``scenario``
re-target the sweep (e.g. ``python -m repro fig15 --schemes buzz-e2e
--scenario dense``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import format_table
from repro.engine import CampaignSpec, run_campaign
from repro.network.scenarios import (
    ScenarioLike,
    default_uplink_scenario,
    resolve_scenario_factory,
)

__all__ = ["EndToEndResult", "E2E_SCHEMES", "run", "render"]

#: The default comparison: every end-to-end variant plus the oracle.
E2E_SCHEMES = ("buzz-e2e", "silenced-e2e", "gen2-tdma-e2e", "buzz")


@dataclass(frozen=True)
class EndToEndResult:
    """Per-K, per-scheme session statistics.

    ``ident_ms``/``data_ms`` are ``None`` for single-phase schemes (no
    stage decomposition); ``total_ms`` is always the full ``duration_s``.
    """

    tag_counts: List[int]
    schemes: List[str]
    total_ms: Dict[int, Dict[str, float]]
    ident_ms: Dict[int, Dict[str, Optional[float]]]
    data_ms: Dict[int, Dict[str, Optional[float]]]
    mean_loss: Dict[int, Dict[str, float]]
    mean_retries: Dict[int, Dict[str, Optional[float]]]

    def identification_fraction(self, scheme: str, k: int) -> Optional[float]:
        """Share of the session spent identifying (None for oracle schemes)."""
        ident = self.ident_ms[k][scheme]
        if ident is None:
            return None
        return ident / self.total_ms[k][scheme]

    def estimation_penalty(
        self, k: int, e2e: str = "buzz-e2e", oracle: str = "buzz"
    ) -> Optional[float]:
        """Data-phase slowdown from estimated channels: e2e data / oracle total.

        Both sides run the same rateless code on the same grid; the oracle
        scheme's whole duration *is* its data phase, so the ratio isolates
        what identification's channel-estimation error (and any missed
        tags) costs the decoder. ≈ 1.0 means the estimates are good enough.
        """
        if e2e not in self.schemes or oracle not in self.schemes:
            return None
        data = self.data_ms[k][e2e]
        if data is None:
            return None
        return data / self.total_ms[k][oracle]


def run(
    tag_counts: Sequence[int] = (4, 8, 12, 16),
    n_locations: int = 10,
    n_traces: int = 5,
    seed: int = 15,
    schemes: Sequence[str] = E2E_SCHEMES,
    scenario: ScenarioLike = None,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> EndToEndResult:
    """Sweep complete sessions across K on the campaign grid."""
    factory = resolve_scenario_factory(scenario, default_uplink_scenario)
    total_ms: Dict[int, Dict[str, float]] = {}
    ident_ms: Dict[int, Dict[str, Optional[float]]] = {}
    data_ms: Dict[int, Dict[str, Optional[float]]] = {}
    mean_loss: Dict[int, Dict[str, float]] = {}
    mean_retries: Dict[int, Dict[str, Optional[float]]] = {}

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
        total_ms[k], ident_ms[k], data_ms[k] = {}, {}, {}
        mean_loss[k], mean_retries[k] = {}, {}
        for scheme in schemes:
            runs = campaign.by_scheme(scheme)
            total_ms[k][scheme] = float(np.mean([r.duration_s for r in runs])) * 1e3
            mean_loss[k][scheme] = float(np.mean([r.message_loss for r in runs]))
            staged = all(r.identification_s is not None for r in runs)
            ident_ms[k][scheme] = (
                float(np.mean([r.identification_s for r in runs])) * 1e3
                if staged
                else None
            )
            data_ms[k][scheme] = (
                float(np.mean([r.data_s for r in runs])) * 1e3 if staged else None
            )
            mean_retries[k][scheme] = (
                float(np.mean([r.retries for r in runs])) if staged else None
            )

    return EndToEndResult(
        tag_counts=list(tag_counts),
        schemes=list(schemes),
        total_ms=total_ms,
        ident_ms=ident_ms,
        data_ms=data_ms,
        mean_loss=mean_loss,
        mean_retries=mean_retries,
    )


def render(result: EndToEndResult) -> str:
    def _cell(k: int, scheme: str) -> str:
        total = result.total_ms[k][scheme]
        ident = result.ident_ms[k][scheme]
        if ident is None:
            return f"{total:.3f}"
        return f"{total:.3f} ({ident:.2f}+{result.data_ms[k][scheme]:.2f})"

    rows = [
        (k, *(_cell(k, s) for s in result.schemes)) for k in result.tag_counts
    ]
    headers = ["K"] + [f"{s} ms" for s in result.schemes]
    table = format_table(headers, rows)

    lines = [table]
    k_max = result.tag_counts[-1]
    frac = result.identification_fraction("buzz-e2e", k_max) if (
        "buzz-e2e" in result.schemes
    ) else None
    if frac is not None:
        lines.append(
            f"\nAt K={k_max}, buzz-e2e spends {100 * frac:.0f}% of the session "
            f"identifying (staged cells show total (identification+data))"
        )
    penalty = result.estimation_penalty(k_max)
    if penalty is not None:
        lines.append(
            f"\nEstimated-channel data phase runs {penalty:.2f}x the oracle "
            f"buzz transfer at K={k_max} (1.00x = estimation error costless)"
        )
    if "buzz-e2e" in result.schemes and "gen2-tdma-e2e" in result.schemes:
        gain = result.total_ms[k_max]["gen2-tdma-e2e"] / result.total_ms[k_max]["buzz-e2e"]
        lines.append(
            f"\nComplete Buzz session is {gain:.1f}x faster than the Gen-2 "
            f"inventory+TDMA session at K={k_max}"
        )
    return "".join(lines)


if __name__ == "__main__":
    print(render(run()))
