"""Declarative campaigns over the unified scheme engine.

The paper's methodology (§9) is a grid: locations × traces × schemes, every
scheme re-run on the same channel realisation. :class:`CampaignSpec`
declares that grid (plus an optional config-sweep axis);
:func:`run_campaign` evaluates it as a three-stage pipeline — *plan*
(:mod:`repro.engine.plan` addresses every cell and resolves cache hits),
*execute* (a pluggable backend from :mod:`repro.engine.backends`: serial,
chunked process pool, or the multi-host cache-queue), *stream* (cells are
cached and reported through ``on_cell`` as they finish).

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
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import BuzzConfig
from repro.engine.schemes import (
    SchemeRun,
    UplinkScheme,
    available_schemes,
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
    variant: int = 0


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
    configs:
        Config-sweep axis: one entry runs the classic grid, several entries
        add an inner variant axis (e.g. a density or restart-count sweep).
    max_slots:
        Optional abort bound forwarded to slot-based schemes.
    """

    scenario: "Scenario"
    root_seed: int = 0
    n_locations: int = 10
    n_traces: int = 5
    schemes: Tuple[str, ...] = SCHEMES
    configs: Tuple[BuzzConfig, ...] = field(default_factory=lambda: (BuzzConfig(),))
    max_slots: Optional[int] = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_locations, "n_locations")
        ensure_positive_int(self.n_traces, "n_traces")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "configs", tuple(self.configs))
        if not self.schemes:
            raise ValueError("spec needs at least one scheme")
        if not self.configs:
            raise ValueError("spec needs at least one config")
        for scheme in self.schemes:
            get_scheme(scheme)  # raises ValueError on unknown names

    @property
    def n_cells(self) -> int:
        return self.n_locations * self.n_traces * len(self.schemes) * len(self.configs)

    def cells(self) -> Iterator[CampaignCell]:
        """Enumerate the grid in the canonical (pre-engine) record order."""
        for location in range(self.n_locations):
            for trace in range(self.n_traces):
                for scheme in self.schemes:
                    for variant in range(len(self.configs)):
                        yield CampaignCell(location, trace, scheme, variant)


@dataclass
class CampaignResult:
    """All runs of a campaign, indexable by scheme.

    ``by_scheme`` and every aggregate read a lazily built per-scheme
    index instead of rescanning ``runs`` on each call; the index is
    rebuilt transparently whenever ``runs`` has grown (the streaming
    progress path appends to a live result between reads).
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

    def _runs_for_aggregate(self, scheme: str) -> List[SchemeRun]:
        """Runs for ``scheme``, refusing to aggregate over nothing.

        A registered scheme with zero recorded runs would otherwise feed
        ``np.mean``/``np.median`` an empty list — a silent ``nan`` plus a
        RuntimeWarning instead of an actionable error.
        """
        runs = self.by_scheme(scheme)
        if not runs:
            raise ValueError(
                f"no runs recorded for scheme {scheme!r} in this campaign "
                f"(it was not in the spec's scheme set)"
            )
        return runs

    def mean_duration_s(self, scheme: str) -> float:
        runs = self._runs_for_aggregate(scheme)
        return float(np.mean([r.duration_s for r in runs]))

    def total_loss(self, scheme: str) -> int:
        return int(sum(r.message_loss for r in self._runs_for_aggregate(scheme)))

    def mean_loss_per_run(self, scheme: str) -> float:
        runs = self._runs_for_aggregate(scheme)
        return float(np.mean([r.message_loss for r in runs]))

    def median_loss_fraction(self, scheme: str) -> float:
        runs = self._runs_for_aggregate(scheme)
        return float(np.median([r.message_loss / r.n_tags for r in runs]))

    def mean_rate(self, scheme: str) -> float:
        runs = self._runs_for_aggregate(scheme)
        return float(np.mean([r.bits_per_symbol for r in runs]))

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

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path) -> "CampaignResult":
        return cls.from_json(Path(path).read_text())


def _cell_rng_keys(spec: CampaignSpec, cell: CampaignCell) -> tuple:
    """Per-cell stream keys; the single-config path keeps the pre-engine
    derivation so existing root seeds reproduce their published numbers."""
    if len(spec.configs) == 1:
        return ("trace", cell.location, cell.trace, cell.scheme)
    return ("trace", cell.location, cell.trace, cell.scheme, cell.variant)


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
    run_rng = seeds.stream(*_cell_rng_keys(spec, cell))
    scheme_obj = scheme if scheme is not None else get_scheme(cell.scheme)
    run = scheme_obj.run(
        population,
        front_end,
        run_rng,
        config=spec.configs[cell.variant],
        max_slots=spec.max_slots,
    )
    return replace(run, location=cell.location, trace=cell.trace, variant=cell.variant)


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    mp_context: Optional[str] = None,
    cache_dir: Optional[str] = None,
    backend=None,
    on_cell: Optional[Callable[[CampaignCell, SchemeRun, bool], None]] = None,
    chunk_size: Optional[int] = None,
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
    default (serial for ``jobs == 1``, the chunked process pool
    otherwise); a registry name (``"serial"``, ``"process-pool"``,
    ``"cache-queue"``) or a configured
    :class:`~repro.engine.backends.ExecutorBackend` instance overrides
    it. Every backend produces bit-identical grid-order results for the
    same spec; the ``cache-queue`` backend additionally lets external
    ``python -m repro worker`` processes (any host sharing ``cache_dir``)
    claim cells while this call coordinates.

    ``on_cell(cell, run, cached)`` fires once per cell: first for plan
    stage cache hits (``cached=True``, grid order), then for executed
    cells as they finish (``cached=False``, completion order).

    ``cache_dir`` names a :class:`~repro.engine.cache.CampaignCache`
    directory: cells whose content address is already stored load from
    JSON instead of executing, and freshly executed cells are stored for
    the next run. A repeat invocation of the same spec therefore executes
    zero cells and reproduces the identical result. ``chunk_size``
    overrides the process pool's dispatch granularity.
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
    backend_obj = resolve_backend(
        backend, jobs=jobs, mp_context=mp_context, chunk_size=chunk_size
    )
    if backend_obj.requires_cache and cache is None:
        raise ValueError(
            f"backend {backend_obj.name!r} coordinates through the cell "
            f"cache; pass cache_dir="
        )
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
