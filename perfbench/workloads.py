"""The benchmark's workloads: seeded campaign specs and their timed loads.

Every workload is a closed loop in one process: the next campaign starts
when the previous one has finished. A workload turns a seed into a fixed
list of :class:`~repro.engine.CampaignSpec` — its *sweep* — so the same
seed always yields the same inputs. A load runs the sweep in *rounds*,
each round the whole sweep in the same order, and times every cell in
each, scaled to the reference host speed by the calibration probes
around it (see ``host_probe``); a cell's time is its best round (see
``Load``). The number of rounds follows from ``--seconds`` alone (see
``Workload.rounds``).

* ``paper-decode`` — the oracle ``buzz`` scheme (genie ids and channels)
  on the ``default`` scenario at K = 32, one cell per spec, serial
  backend. The decoder and its verification do almost all the work.
* ``sessions`` — complete sessions at K = 12, rotating ``buzz-e2e`` on
  ``dense``, ``buzz-adaptive`` on ``mobile-dense`` and ``multi-reader`` on
  ``dense-floor``, one cell per spec, through the ``cache-queue`` backend
  into an empty cache (claim, execute, store, release per cell; the
  coordinator is the only claimant). The only workload where
  identification, re-identification, the mobile data loop, the event
  simulator and the work queue run.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import engine
from repro.engine import CampaignCache, CampaignSpec, plan_campaign
from repro.network.scenarios import scenario_by_name

#: The documented default ``--seed``; the pinned reference uses it.
DEFAULT_SEED = 1

#: A load runs at least this many rounds, so every cell has a best of two.
MIN_ROUNDS = 2
#: Warm re-runs timed after each spec's cold run.
WARM_PASSES = 10

#: Session mix: (scenario, scheme), one spec each in rotation.
SESSION_MIX = (
    ("dense", "buzz-e2e"),
    ("mobile-dense", "buzz-adaptive"),
    ("dense-floor", "multi-reader"),
)

#: Candidate pool of the cell-bound workloads (see ``build_pool.py``):
#: per pool, candidate root seeds sorted by the host time their cell took.
POOL = Path(__file__).resolve().parent / "pool.json"
#: Difficulty strata per pool: a sweep runs one cell of each.
STRATA = {"paper-decode": 16, "buzz-e2e": 8, "buzz-adaptive": 8, "multi-reader": 8}
#: Candidates per stratum.
STRATUM_SIZE = 12

#: Host time of one ``host_probe`` at the reference host speed. Timed
#: figures are scaled to it (see ``host_probe``); the value only sets the
#: scale of the printed figures.
REFERENCE_PROBE_S = 0.025

_PROBE_RNG = np.random.default_rng(20120813)
_PROBE_M = _PROBE_RNG.standard_normal((32, 64))
_PROBE_V = _PROBE_RNG.standard_normal(64)


def host_probe() -> float:
    """Host time of a fixed calibration kernel, about 25 ms.

    The kernel is what a decode round is made of — small matrix-vector
    products, an argmax and a row update on K = 32 arrays, in a Python
    loop — and uses no code of the library, so no change to the library
    moves it. The host the benchmark runs on is shared: its speed swings
    by up to 1.9× in stretches of seconds to minutes, the probe and a
    cell alike. A timed load brackets every cold run and every set of
    warm passes with probes and scales the time by ``REFERENCE_PROBE_S``
    over their mean, so figures read as at the reference host speed.
    """
    start = time.perf_counter()
    m, v, s = _PROBE_M.copy(), _PROBE_V.copy(), 0
    for _ in range(4000):
        k = int(np.argmax(np.abs(m @ v)))
        m[k] *= -1.0
        v = v + 0.001 * m[k]
        s += k * k % 7
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that takes a time bracketed by two probes to the reference speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


def root_seed(workload: str, seed: int, index: int) -> int:
    """A 32-bit root seed derived from ``(workload, seed, index)``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@lru_cache(maxsize=1)
def _pool() -> dict:
    return json.loads(POOL.read_text())


def _pick(name: str, seed: int, stratum: int) -> int:
    """The root seed the seed picks from one stratum of pool ``name``.

    Only the middle half of a stratum is drawn from: the stratum's edges
    hold its cheapest and dearest cells, and drawing from them moved a
    sweep's median cell time by several percent from seed to seed.
    """
    low = stratum * STRATUM_SIZE + STRATUM_SIZE // 4
    members = _pool()[name][low:low + STRATUM_SIZE // 2]
    return min(members, key=lambda c: hashlib.sha256(f"{seed}/{c}".encode()).digest())


def decode_spec(root: int) -> CampaignSpec:
    return CampaignSpec(
        scenario=scenario_by_name("default", 32),
        root_seed=root,
        n_locations=1,
        n_traces=1,
        schemes=("buzz",),
    )


def session_spec(scenario: str, scheme: str, root: int) -> CampaignSpec:
    return CampaignSpec(
        scenario=scenario_by_name(scenario, 12),
        root_seed=root,
        n_locations=1,
        n_traces=1,
        schemes=(scheme,),
    )


def paper_decode_specs(seed: int) -> List[CampaignSpec]:
    return [decode_spec(_pick("paper-decode", seed, s)) for s in range(STRATA["paper-decode"])]


def sessions_specs(seed: int) -> List[CampaignSpec]:
    return [
        session_spec(scenario, scheme, _pick(scheme, seed, s))
        for s in range(STRATA["buzz-e2e"])
        for scenario, scheme in SESSION_MIX
    ]


def record_digest(run) -> str:
    """sha256 of one cell's ``SchemeRun`` record."""
    return hashlib.sha256(
        json.dumps(run.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def campaign_digest(result) -> str:
    """sha256 of a campaign's ``CampaignResult.to_json()``."""
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def check_record(spec: CampaignSpec, cell, run) -> Optional[str]:
    """Invariants every record must meet; ``None`` or what is wrong."""
    k = spec.scenario.n_tags
    problems = []
    if (run.scheme, run.location, run.trace) != (cell.scheme, cell.location, cell.trace):
        problems.append("grid coordinates")
    if run.n_tags != k or len(run.transmissions) != k:
        problems.append("tag count")
    if not 0 <= run.message_loss <= k:
        problems.append("message_loss")
    if run.bit_errors < 0 or run.slots_used < 0 or (run.transmissions < 0).any():
        problems.append("negative count")
    if not (math.isfinite(run.duration_s) and run.duration_s > 0):
        problems.append("duration_s")
    if not (math.isfinite(run.bits_per_symbol) and run.bits_per_symbol >= 0):
        problems.append("bits_per_symbol")
    return ", ".join(problems) or None


@dataclass
class SpecRun:
    """One spec's cold run and its warm passes, within one round."""

    cell_s: List[float]  #: host time per executed cell, at reference speed if probed
    runs: list  #: (cell, run) per executed cell
    digest: str  #: sha256 of the cold ``CampaignResult.to_json()``
    warm_cells: int  #: cells loaded by the warm passes
    warm_s: float  #: host time of the warm passes, at reference speed if probed
    wall_s: float  #: host time of the whole spec, storing and probes included
    probe_s: List[float]  #: the ``host_probe`` times taken around the spec


@dataclass
class Load:
    """Rounds over one sweep of specs.

    A cell's time, and a spec's warm-pass time, is the best of its
    rounds. The rounds of a run lie seconds apart, so a stretch in which
    the shared host runs slowly rarely covers every round of a cell;
    timing cells by their best round takes such stretches out of the
    figures the way ``timeit`` does. Every round must reproduce the first
    round's records exactly.
    """

    best_s: Dict[int, List[float]] = field(default_factory=dict)  #: spec index → cells
    best_warm_s: Dict[int, float] = field(default_factory=dict)  #: spec index → warm passes
    warm_cells: Dict[int, int] = field(default_factory=dict)  #: spec index → cells loaded
    records: list = field(default_factory=list)  #: (spec index, cell, run), first round
    digests: Dict[int, str] = field(default_factory=dict)  #: spec index → campaign
    probe_s: List[float] = field(default_factory=list)  #: every ``host_probe`` time
    wall_s: float = 0.0  #: host time of all rounds
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def cell_s(self) -> List[float]:
        """Best-round host time of every executed cell, in sweep order."""
        return [t for index in sorted(self.best_s) for t in self.best_s[index]]

    @property
    def cached_cells_per_s(self) -> float:
        """Cells loaded per second of warm passes, each spec at its best round."""
        return sum(self.warm_cells.values()) / sum(self.best_warm_s.values())

    def record_digests(self) -> List[str]:
        return [record_digest(run) for _, _, run in self.records]

    def add_round(self, specs: List[CampaignSpec], results: List[Optional[SpecRun]]) -> None:
        """Fold in one round; ``None`` marks a spec that failed (already counted)."""
        self.rounds += 1
        for index, (spec, result) in enumerate(zip(specs, results)):
            if result is None:
                continue
            self.wall_s += result.wall_s
            self.probe_s += result.probe_s
            if index not in self.digests:
                self.digests[index] = result.digest
                self.best_s[index] = list(result.cell_s)
                self.best_warm_s[index] = result.warm_s
                self.warm_cells[index] = result.warm_cells
                for cell, run in result.runs:
                    problem = check_record(spec, cell, run)
                    if problem is not None:
                        self.fail(1, f"spec {index} {cell}: {problem}")
                    self.records.append((index, cell, run))
            elif result.digest != self.digests[index]:
                self.fail(spec.n_cells, f"spec {index}: round {self.rounds} differs from round 1")
            else:
                self.best_s[index] = [min(a, b) for a, b in zip(self.best_s[index], result.cell_s)]
                self.best_warm_s[index] = min(self.best_warm_s[index], result.warm_s)


def _timed_campaign(spec: CampaignSpec, load: Load, index: int, tracer=None, **kwargs):
    """Run one campaign; ``(result, per-cell host times, (cell, run)s)``.

    A cell's time runs from the previous cell's emit (or the call) to its
    own emit, so plan and dispatch overhead land on the cells that pay it.
    """
    marks = [time.perf_counter()]
    cells = []

    def on_cell(cell, run, cached):
        marks.append(time.perf_counter())
        cells.append((cell, run))
        if tracer is not None:
            tracer.cell += 1

    load.attempted += spec.n_cells
    try:
        result = engine.run_campaign(spec, on_cell=on_cell, **kwargs)
    except Exception as exc:  # a raising cell fails its whole campaign
        load.fail(spec.n_cells, f"spec {index}: {type(exc).__name__}: {exc}")
        return None
    return result, [b - a for a, b in zip(marks, marks[1:])], cells


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], List[CampaignSpec]]  #: seed → the sweep
    reference_specs: Callable[[], List[CampaignSpec]]
    round_s: float  #: nominal host time of one round (see ``rounds``)
    queue: bool = False  #: cold passes go through the ``cache-queue`` backend

    def rounds(self, seconds: float) -> int:
        """Rounds a load of ``seconds`` runs.

        The count follows from ``seconds`` and the nominal round length,
        never from the pace measured in the run: the best of more rounds
        reads faster (on 2 000 cheap cells, about 15 % from two rounds
        to four), so a count that grew with the pace would flatter a
        faster program and vary with the host's slow stretches.
        """
        return max(MIN_ROUNDS, math.ceil(seconds / self.round_s))

    def run_load(self, seed: int, seconds: float, workdir: Path,
                 between: Callable[[], None] = lambda: None) -> Load:
        """Run ``rounds(seconds)`` rounds of the seed's sweep; call
        ``between`` before and after every round."""
        specs = self.specs(seed)
        load = Load()
        between()
        for _ in range(self.rounds(seconds)):
            self.run_round(specs, load, workdir)
            between()
        return load

    def run_round(self, specs, load: Load, workdir: Path) -> None:
        load.add_round(specs, [self.run_spec(spec, load, i, workdir)
                               for i, spec in enumerate(specs)])

    def run_spec(self, spec, load: Load, index: int, workdir: Path,
                 tracer=None, probe: bool = True) -> Optional[SpecRun]:
        """Run one spec cold, then re-run it from a warm cache.

        A queued spec's cold pass fills an empty cache through the
        ``cache-queue`` backend. Otherwise the spec runs serially with no
        cache, and its records are stored afterwards, outside the timed
        region. Every warm pass must reproduce the cold result exactly.
        With ``probe``, a ``host_probe`` runs before the cold pass, between
        it and the warm passes, and after them, and each timed part is
        scaled to the reference speed by the two probes around it.

        Each call gets a fresh cache directory under ``workdir`` and
        leaves it there; the caller removes ``workdir`` once the load is
        over, so that deleting one round's cache files never overlaps the
        next round's timed writes.
        """
        start = time.perf_counter()
        probes = [host_probe()] if probe else []
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        options = {"cache_dir": cache_dir, "backend": "cache-queue"} if self.queue else {}
        cold = _timed_campaign(spec, load, index, tracer=tracer, **options)
        if cold is None:
            return None
        result, cell_s, runs = cold
        if probe:
            probes.append(host_probe())
            cell_s = [t * host_scale(*probes[-2:]) for t in cell_s]
        if not self.queue:
            cache = CampaignCache(cache_dir)
            for key, run in zip(plan_campaign(spec).keys, result.runs):
                cache.store_key(key, run)
        warm_s = _warm_passes(spec, result, load, index, {"cache_dir": cache_dir})
        if warm_s is None:
            return None
        if probe:
            probes.append(host_probe())
            warm_s *= host_scale(*probes[-2:])
        return SpecRun(cell_s, runs, campaign_digest(result),
                       WARM_PASSES * spec.n_cells, warm_s,
                       time.perf_counter() - start, probes)


def _warm_passes(spec, cold, load: Load, index: int, options: dict) -> Optional[float]:
    """Host time of ``WARM_PASSES`` re-runs of ``spec`` that load every
    cell from cache, or ``None`` if one fails."""
    expected = cold.to_json()
    total = 0.0
    for _ in range(WARM_PASSES):
        start = time.perf_counter()
        try:
            warm = engine.run_campaign(spec, **options)
        except Exception as exc:
            load.fail(spec.n_cells, f"spec {index} warm: {type(exc).__name__}: {exc}")
            return None
        total += time.perf_counter() - start
        if warm.to_json() != expected:
            load.fail(spec.n_cells, f"spec {index}: warm pass differs from cold")
            return None
    return total


WORKLOADS = {
    "paper-decode": Workload(
        "paper-decode",
        paper_decode_specs,
        lambda: paper_decode_specs(DEFAULT_SEED)[:2],
        round_s=7.0,
    ),
    "sessions": Workload(
        "sessions",
        sessions_specs,
        lambda: sessions_specs(DEFAULT_SEED)[:len(SESSION_MIX)],
        round_s=10.0,
        queue=True,
    ),
}


def build_specs(name: str, seed: int) -> List[CampaignSpec]:
    """A workload's sweep — what set-up time covers."""
    return WORKLOADS[name].specs(seed)
