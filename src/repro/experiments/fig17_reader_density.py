"""Fig. 17 (repo extension): goodput vs reader density × collision mode.

The paper evaluates one reader; its motivating deployments (dock doors,
retail floors) run many, and the open question a deployment engineer asks
is *does adding readers add goodput, or does reader-to-reader interference
eat the gain?* This driver sweeps the fleet size R over one deployment
class and, at every R, runs all three rungs of the interference ladder
(:data:`~repro.phy.channel.COLLISION_MODES`):

* ``multi-reader-naive`` — any temporal overlap with foreign energy
  destroys the slot (the scheduling literature's safe assumption);
* ``multi-reader-capture`` — slots survive when the desired aggregate
  outpowers the interference by the capture margin;
* ``multi-reader-interference`` — foreign energy arrives as extra noise
  and the rateless decoder absorbs what it can.

The figure of merit is delivered-message **goodput** (messages per second
of fleet makespan). The spread between the naive and interference rows at
the same R is exactly the value of receiver-side collision tolerance —
how much of the multi-reader problem Buzz's collision-friendly code
solves without any reader scheduling at all.

Runs entirely on the campaign engine: ``jobs`` parallelises
bit-identically, ``cache_dir`` persists cells, every backend produces
byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.common import format_table
from repro.engine import CampaignSpec, run_campaign
from repro.network.scenarios import multi_reader_scenario

__all__ = ["ReaderDensityResult", "READER_DENSITY_SCHEMES", "run", "render"]

#: The three rungs of the interference ladder, swept at every fleet size.
READER_DENSITY_SCHEMES = (
    "multi-reader-naive",
    "multi-reader-capture",
    "multi-reader-interference",
)

#: Fleet sizes of the full-size figure.
READER_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class ReaderDensityResult:
    """Per-(fleet size, collision mode) aggregate statistics.

    ``goodput`` is delivered messages per second of fleet makespan,
    averaged over the grid's runs; ``mean_loss`` and ``mean_slots``
    average the undelivered-message count and the fleet-wide collision
    slots spent.
    """

    n_tags: int
    reader_counts: List[int]
    schemes: List[str]
    goodput: Dict[int, Dict[str, float]]
    mean_loss: Dict[int, Dict[str, float]]
    mean_slots: Dict[int, Dict[str, float]]

    def interference_gain(self, n_readers: int) -> float:
        """Goodput ratio interference-mode / naive-mode at one fleet size."""
        naive = self.goodput[n_readers]["multi-reader-naive"]
        tolerant = self.goodput[n_readers]["multi-reader-interference"]
        if naive == 0.0:
            return float("inf")
        return tolerant / naive


def run(
    n_tags: int = 16,
    reader_counts: Sequence[int] = READER_COUNTS,
    overlap_fraction: float = 0.4,
    n_locations: int = 6,
    n_traces: int = 2,
    seed: int = 17,
    schemes: Sequence[str] = READER_DENSITY_SCHEMES,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> ReaderDensityResult:
    """Sweep fleet size × collision mode over one deployment class."""
    goodput: Dict[int, Dict[str, float]] = {}
    mean_loss: Dict[int, Dict[str, float]] = {}
    mean_slots: Dict[int, Dict[str, float]] = {}

    for index, n_readers in enumerate(reader_counts):
        # One scenario per fleet size: the mode-pinned scheme variants
        # sweep the ladder over *identical* deployments, so the scenario's
        # own collision mode is irrelevant — keep the default.
        scenario = multi_reader_scenario(
            n_tags,
            n_readers=int(n_readers),
            overlap_fraction=overlap_fraction,
            name=f"fig17-k{n_tags}-r{n_readers}",
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
        r = int(n_readers)
        goodput[r], mean_loss[r], mean_slots[r] = {}, {}, {}
        for scheme in schemes:
            runs = campaign.by_scheme(scheme)
            goodput[r][scheme] = float(
                np.mean([(x.n_tags - x.message_loss) / x.duration_s for x in runs])
            )
            mean_loss[r][scheme] = float(np.mean([x.message_loss for x in runs]))
            mean_slots[r][scheme] = float(np.mean([x.slots_used for x in runs]))

    return ReaderDensityResult(
        n_tags=n_tags,
        reader_counts=[int(r) for r in reader_counts],
        schemes=list(schemes),
        goodput=goodput,
        mean_loss=mean_loss,
        mean_slots=mean_slots,
    )


def render(result: ReaderDensityResult) -> str:
    rows = [
        (
            str(r),
            *(
                f"{result.goodput[r][s]:.0f} ({result.mean_loss[r][s]:.1f}L)"
                for s in result.schemes
            ),
        )
        for r in result.reader_counts
    ]
    headers = ["readers"] + [
        f"{s.replace('multi-reader-', '')} msg/s" for s in result.schemes
    ]
    lines = [format_table(headers, rows)]

    multi = [r for r in result.reader_counts if r > 1]
    if multi and set(READER_DENSITY_SCHEMES) <= set(result.schemes):
        densest = max(multi)
        gain = result.interference_gain(densest)
        ratio = (
            f"{gain:.1f}x"
            if np.isfinite(gain)
            else "delivery where the naive receiver delivered nothing"
        )
        lines.append(
            f"\nAt R={densest} readers (K={result.n_tags}): treating reader "
            f"collisions as noise instead of erasures yields {ratio} the "
            f"naive goodput — the share of the multi-reader problem the "
            f"rateless code absorbs with no scheduling at all"
        )
    return "".join(lines)


if __name__ == "__main__":
    print(render(run()))
