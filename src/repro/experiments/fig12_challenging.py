"""Fig. 12: challenging channels — Buzz adapts below 1 bit/symbol.

Four tags are pushed further and further from the reader (five per-tag SNR
bands). TDMA starts losing messages as the channel degrades, reaching a
median 50 % loss in the hardest band (CDMA loses everything); Buzz keeps
collecting collisions, adapts the aggregate rate below 1 bit/symbol, and
delivers every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.common import format_table
from repro.engine import CampaignSpec, run_campaign
from repro.network.metrics import uplink_metrics_from_runs
from repro.network.scenarios import CHALLENGING_SNR_BANDS, challenging_scenario

__all__ = ["ChallengingResult", "run", "render"]


@dataclass(frozen=True)
class ChallengingResult:
    """Per-band outcomes for the three schemes, K = 4."""

    bands: List[Tuple[int, int]]
    buzz_decoded: List[float]
    tdma_decoded: List[float]
    cdma_decoded: List[float]
    buzz_rate: List[float]
    tdma_rate: List[float]
    buzz_loss_fraction: List[float]
    tdma_median_loss: List[float]
    cdma_loss_fraction: List[float]


def run(
    bands: Sequence[Tuple[int, int]] = tuple(CHALLENGING_SNR_BANDS),
    n_tags: int = 4,
    n_locations: int = 8,
    n_traces: int = 3,
    seed: int = 12,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> ChallengingResult:
    """Sweep the Fig. 12 SNR bands (``jobs`` parallelises each campaign)."""
    buzz_dec, tdma_dec, cdma_dec = [], [], []
    buzz_rate, tdma_rate = [], []
    buzz_loss, tdma_med, cdma_loss = [], [], []
    for band in bands:
        spec = CampaignSpec(
            scenario=challenging_scenario(band, n_tags=n_tags),
            root_seed=seed + band[0] * 100 + band[1],
            n_locations=n_locations,
            n_traces=n_traces,
        )
        campaign = run_campaign(
            spec,
            jobs=jobs,
            cache_dir=cache_dir,
            backend=backend,
            on_cell=on_cell,
        )
        per = {
            s: uplink_metrics_from_runs(s, campaign.by_scheme(s))
            for s in ("buzz", "tdma", "cdma")
        }
        buzz_dec.append(n_tags - per["buzz"].mean_undecoded)
        tdma_dec.append(n_tags - per["tdma"].mean_undecoded)
        cdma_dec.append(n_tags - per["cdma"].mean_undecoded)
        buzz_rate.append(per["buzz"].mean_rate_bits_per_symbol)
        tdma_rate.append(per["tdma"].mean_rate_bits_per_symbol)
        buzz_loss.append(per["buzz"].loss_fraction)
        tdma_runs = campaign.by_scheme("tdma")
        tdma_med.append(float(np.median([r.message_loss / r.n_tags for r in tdma_runs])))
        cdma_loss.append(per["cdma"].loss_fraction)
    return ChallengingResult(
        bands=list(bands),
        buzz_decoded=buzz_dec,
        tdma_decoded=tdma_dec,
        cdma_decoded=cdma_dec,
        buzz_rate=buzz_rate,
        tdma_rate=tdma_rate,
        buzz_loss_fraction=buzz_loss,
        tdma_median_loss=tdma_med,
        cdma_loss_fraction=cdma_loss,
    )


def render(result: ChallengingResult) -> str:
    rows = []
    for i, band in enumerate(result.bands):
        rows.append(
            (
                f"({band[0]}-{band[1]})",
                result.buzz_decoded[i],
                result.tdma_decoded[i],
                result.cdma_decoded[i],
                result.buzz_rate[i],
                f"{100 * result.tdma_median_loss[i]:.0f}%",
                f"{100 * result.cdma_loss_fraction[i]:.0f}%",
            )
        )
    table = format_table(
        ["SNR band dB", "Buzz dec", "TDMA dec", "CDMA dec", "Buzz b/sym",
         "TDMA med loss", "CDMA loss"],
        rows,
    )
    summary = (
        "\nFig. 12 reproduction (paper: Buzz decodes all 4 tags in every band, "
        "adapting to <1 b/sym in the hardest; TDMA reaches 50% median loss; "
        "CDMA reaches 100%)"
    )
    return table + summary


if __name__ == "__main__":
    print(render(run()))
