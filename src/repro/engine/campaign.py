"""Declarative campaigns over the unified scheme engine.

The paper's methodology (§9) is a grid: locations × traces × schemes, every
scheme re-run on the same channel realisation. :class:`CampaignSpec`
declares that grid under one :class:`~repro.core.config.BuzzConfig`; a
config sweep is a list of specs, one per setting. :func:`run_campaign`
evaluates a spec as a three-stage pipeline — *plan*
(:mod:`repro.engine.plan` addresses every cell and resolves cache hits),
*execute* (a backend from :mod:`repro.engine.backends`: serial, chunked
process pool, or the multi-host cache-queue), *stream* (cells are cached
and reported through ``on_cell`` as they finish).

**Determinism.** Every cell re-derives all of its randomness from
``(root_seed, keys)`` through :class:`~repro.utils.rng.SeedSequenceFactory`:
the location's population from ``("location", i)`` and the run generator
from ``("trace", i, j, scheme)``. No generator state crosses cell
boundaries, so a cell computes the same bits whether it runs in-process,
in a forked worker, or in a freshly spawned interpreter — serial and
parallel campaigns are bit-identical for the same root seed, and both
reproduce the pre-engine serial loop exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.config import BuzzConfig
from repro.engine.registry import (
    SchemeRun,
    UplinkScheme,
    available_schemes,
    check_scheme,
    get_scheme,
)
from repro.nodes.reader import ReaderFrontEnd
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import ensure_positive_int

if TYPE_CHECKING:  # imported lazily to avoid a repro.network import cycle
    from repro.network.scenarios import Scenario

__all__ = [
    "SCHEMES",
    "CampaignCell",
    "CampaignSpec",
    "SchemeRun",
    "CampaignResult",
    "run_campaign",
    "run_cell",
]

#: The paper's three-scheme comparison — the default grid axis.
SCHEMES = ("buzz", "tdma", "cdma")


@dataclass(frozen=True)
class CampaignCell:
    """Grid coordinates of one independent unit of campaign work."""

    location: int
    trace: int
    scheme: str


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a campaign grid.

    Attributes
    ----------
    scenario:
        Deployment class locations are drawn from.
    root_seed:
        Root of every derived stream — the campaign's only entropy input.
    n_locations / n_traces:
        Grid extent (paper: 10 × 5).
    schemes:
        Registry names to run back-to-back on each trace.
    config:
        The decoder and protocol settings every cell runs under.
    max_slots:
        Optional abort bound forwarded to slot-based schemes: ``None`` or
        a positive int.
    """

    scenario: "Scenario"
    root_seed: int = 0
    n_locations: int = 10
    n_traces: int = 5
    schemes: Tuple[str, ...] = SCHEMES
    config: BuzzConfig = field(default_factory=BuzzConfig)
    max_slots: Optional[int] = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_locations, "n_locations")
        ensure_positive_int(self.n_traces, "n_traces")
        if self.max_slots is not None:
            ensure_positive_int(self.max_slots, "max_slots")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes:
            raise ValueError("spec needs at least one scheme")
        for scheme in self.schemes:
            check_scheme(scheme)  # raises ValueError on unknown names

    @property
    def n_cells(self) -> int:
        return self.n_locations * self.n_traces * len(self.schemes)

    def cells(self) -> Iterator[CampaignCell]:
        """Enumerate the grid in the canonical (pre-engine) record order."""
        for location in range(self.n_locations):
            for trace in range(self.n_traces):
                for scheme in self.schemes:
                    yield CampaignCell(location, trace, scheme)


@dataclass
class CampaignResult:
    """All runs of a campaign, indexable by scheme.

    ``by_scheme`` reads a lazily built per-scheme index instead of
    rescanning ``runs`` on each call; the index is rebuilt transparently
    whenever ``runs`` has grown (the streaming progress path appends to
    a live result between reads).
    """

    scenario_name: str
    runs: List[SchemeRun] = field(default_factory=list)
    _index: Optional[Dict[str, List[SchemeRun]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _index_len: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def n_runs(self) -> int:
        """Total recorded runs (cells) across all schemes."""
        return len(self.runs)

    def schemes_present(self) -> Tuple[str, ...]:
        """Scheme names with at least one run, in first-appearance order."""
        return tuple(self._scheme_index())

    def _scheme_index(self) -> Dict[str, List[SchemeRun]]:
        if self._index is None or self._index_len != len(self.runs):
            index: Dict[str, List[SchemeRun]] = {}
            for run in self.runs:
                index.setdefault(run.scheme, []).append(run)
            self._index = index
            self._index_len = len(self.runs)
        return self._index

    def by_scheme(self, scheme: str) -> List[SchemeRun]:
        # Accept names present in this result's own data as well as the
        # registry — the result must stay readable in a process (or after
        # unpickling) whose registry differs from the one that ran it.
        index = self._scheme_index()
        if scheme in index:
            return list(index[scheme])
        if scheme not in available_schemes():
            raise ValueError(f"unknown scheme {scheme!r}")
        return []

    # ---- persistence ----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scenario_name": self.scenario_name,
            "runs": [r.to_dict() for r in self.runs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        return cls(
            scenario_name=str(data["scenario_name"]),
            runs=[SchemeRun.from_dict(r) for r in data["runs"]],
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the full result; floats survive the round trip exactly."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))


def _cell_rng_keys(cell: CampaignCell) -> tuple:
    """Per-cell run-stream keys — the pre-engine derivation, so existing
    root seeds reproduce their published numbers."""
    return ("trace", cell.location, cell.trace, cell.scheme)


def run_cell(
    spec: CampaignSpec, cell: CampaignCell, scheme: Optional[UplinkScheme] = None
) -> SchemeRun:
    """Evaluate one grid cell from scratch — the unit both executors run.

    The population is re-derived rather than shared: the same
    ``("location", i)`` stream always regenerates the same channels,
    messages and ids, so re-drawing it per cell costs microseconds and buys
    process independence. ``scheme`` lets the caller pass the scheme object
    by value (the process pool does, so user-registered schemes work in
    spawned workers whose registries only hold the built-ins); by default
    it is looked up in this process's registry.
    """
    seeds = SeedSequenceFactory(spec.root_seed)
    population = spec.scenario.draw_population(seeds.stream("location", cell.location))
    front_end = ReaderFrontEnd(noise_std=population.noise_std)
    run_rng = seeds.stream(*_cell_rng_keys(cell))
    scheme_obj = scheme if scheme is not None else get_scheme(cell.scheme)
    run = scheme_obj.run(
        population,
        front_end,
        run_rng,
        config=spec.config,
        max_slots=spec.max_slots,
    )
    return replace(run, location=cell.location, trace=cell.trace)


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    backend=None,
    on_cell: Optional[Callable[[CampaignCell, SchemeRun, bool], None]] = None,
) -> CampaignResult:
    """Execute a campaign spec and collect its records in grid order.

    The three-stage pipeline: **plan** (enumerate the grid, address every
    cell, resolve cache hits — :func:`repro.engine.plan.plan_campaign`),
    **execute** (hand the pending cells to a pluggable backend —
    :mod:`repro.engine.backends`), **stream** (each finished cell is
    written to the cache and reported through ``on_cell`` as it
    completes, so long campaigns are observable and resumable mid-flight,
    not only once the last cell lands).

    ``backend`` selects the executor: ``None`` keeps the historical
    default (serial for ``jobs == 1``, the chunked process pool of
    ``jobs`` workers otherwise); one of
    :data:`~repro.engine.backends.BACKENDS` (``"serial"``,
    ``"process-pool"``, ``"cache-queue"``) picks a built-in with its
    defaults; a configured :class:`~repro.engine.backends.ExecutorBackend`
    instance runs as given — that is how a pool's start method or chunk
    size, or a queue's lease timing, is set. Every backend produces
    bit-identical grid-order results for the same spec; the
    ``cache-queue`` backend additionally lets external
    ``python -m repro worker`` processes (any host sharing ``cache_dir``)
    claim cells while this call coordinates.

    ``on_cell(cell, run, cached)`` fires once per cell: first for plan
    stage cache hits (``cached=True``, grid order), then for executed
    cells as they finish (``cached=False``, completion order).

    ``cache_dir`` names a :class:`~repro.engine.cache.CampaignCache`
    directory: cells whose content address is already stored load from
    JSON instead of executing, and freshly executed cells are stored for
    the next run. A repeat invocation of the same spec therefore executes
    zero cells and reproduces the identical result: a plan the cache
    completes returns without consulting the scheme registry or the
    backend's ``execute``.
    """
    from repro.engine.backends import ExecutionContext, resolve_backend
    from repro.engine.cache import CampaignCache
    from repro.engine.plan import plan_campaign

    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cache = CampaignCache(cache_dir) if cache_dir is not None else None
    plan = plan_campaign(spec, cache)
    if on_cell is not None:
        for planned in plan.cached():
            on_cell(planned.cell, plan.results[planned.index], True)
    backend_obj = resolve_backend(backend, jobs=jobs)
    if backend_obj.requires_cache and cache is None:
        raise ValueError(
            f"backend {backend_obj.name!r} coordinates through the cell "
            f"cache; pass cache_dir="
        )
    if plan.is_complete():
        return plan.to_result()
    # Resolve the schemes in *this* process and ship the objects with the
    # task — a spawned worker's registry only holds the built-ins.
    schemes = {name: get_scheme(name) for name in spec.schemes}

    def emit(index: int, run: SchemeRun, store: bool = True) -> None:
        plan.results[index] = run
        if store and cache is not None:
            cache.store_key(plan.keys[index], run)
        if on_cell is not None:
            on_cell(plan.cells[index], run, False)

    backend_obj.execute(
        ExecutionContext(
            spec=spec, plan=plan, schemes=schemes, emit=emit, cache=cache
        )
    )
    return plan.to_result()
