"""Campaign planning: turn a spec into addressed, cache-resolved work.

The first stage of the plan → execute → stream pipeline. A
:class:`CampaignPlan` enumerates the spec's grid in canonical order,
computes each cell's content address (:func:`~repro.engine.cache.
cell_cache_key` — the name a ``cache-queue`` worker claims it under), and
resolves cache hits up front, so every :class:`~repro.engine.backends.
ExecutorBackend` receives the same view of the work: *these* cells are
done, *those* remain, and each remaining one has a stable address.

Planning is pure bookkeeping — no cell executes here — which is what
makes the backends interchangeable: they only differ in where the
pending cells run, never in what the plan says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.cache import CampaignCache, spec_cell_keys
from repro.engine.campaign import CampaignCell, CampaignResult, CampaignSpec
from repro.engine.registry import SchemeRun

__all__ = ["PlannedCell", "CampaignPlan", "plan_campaign"]


@dataclass(frozen=True)
class PlannedCell:
    """One unit of planned work: grid position + coordinates + address."""

    index: int  #: position in the canonical grid order
    cell: CampaignCell
    key: str  #: content address — the cache/lease name for this cell


@dataclass
class CampaignPlan:
    """A spec's grid, addressed and resolved against the cache.

    ``results`` is the plan's fill-in sheet: slot ``i`` holds cell ``i``'s
    run (pre-filled for cache hits, written by the executor as pending
    cells finish). The plan is complete when no slot is ``None``.
    """

    spec: CampaignSpec
    cells: List[CampaignCell]
    keys: List[str]
    results: List[Optional[SchemeRun]] = field(repr=False, default_factory=list)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cached(self) -> List[PlannedCell]:
        """Cells resolved at plan time, in grid order."""
        return [
            PlannedCell(i, self.cells[i], self.keys[i])
            for i, run in enumerate(self.results)
            if run is not None
        ]

    def pending(self) -> List[PlannedCell]:
        """Cells still to execute, in grid order."""
        return [
            PlannedCell(i, self.cells[i], self.keys[i])
            for i, run in enumerate(self.results)
            if run is None
        ]

    def is_complete(self) -> bool:
        return all(run is not None for run in self.results)

    def to_result(self) -> CampaignResult:
        """Assemble the grid-order result; every slot must be filled."""
        if not self.is_complete():
            missing = [i for i, r in enumerate(self.results) if r is None]
            raise RuntimeError(
                f"campaign plan incomplete: {len(missing)} of {self.n_cells} "
                f"cells unfilled (first missing index {missing[0]})"
            )
        return CampaignResult(
            scenario_name=self.spec.scenario.name, runs=list(self.results)
        )


def plan_campaign(
    spec: CampaignSpec, cache: Optional[CampaignCache] = None
) -> CampaignPlan:
    """Enumerate and address the grid, resolving cache hits into results.

    Without a cache every cell is pending; with one, stored cells load
    immediately and only the remainder reaches the executor. The content
    addresses are computed for every cell either way — they are what the
    ``cache-queue`` backend's leases and the conformance tests key on.
    """
    cells = list(spec.cells())
    address = spec_cell_keys(spec)
    keys = [address(cell) for cell in cells]
    results: List[Optional[SchemeRun]] = [None] * len(cells)
    if cache is not None:
        for i, key in enumerate(keys):
            results[i] = cache.load_key(key)
    return CampaignPlan(spec=spec, cells=cells, keys=keys, results=results)
