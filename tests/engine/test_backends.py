"""Backend conformance suite: every executor produces the same bytes.

The distributed-fabric contract (ISSUE 5 acceptance): for a fixed spec
and root seed, ``serial``, ``process-pool`` (any chunk size) and
``cache-queue`` (any worker count, including a killed-and-resumed
worker) produce **byte-identical** ``CampaignResult.to_json()`` in
canonical grid order — and the work queue never executes a cell twice.
"""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.engine import (
    BACKENDS,
    CacheQueueBackend,
    CampaignCache,
    CampaignSpec,
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    plan_campaign,
    resolve_backend,
    run_campaign,
)
from repro.engine import schemes as schemes_module
from repro.engine.backends import default_chunk_size, pool_initializer
from repro.engine.queue import pack_campaign, run_worker, unpack_campaign
from repro.engine.schemes import TdmaScheme, get_scheme, register_scheme
from repro.network.scenarios import default_uplink_scenario

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-process tests use the fork start method",
)


def _spec(**overrides):
    defaults = dict(
        scenario=default_uplink_scenario(4),
        root_seed=2024,
        n_locations=2,
        n_traces=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def golden_json():
    """The serial reference bytes every backend must reproduce."""
    return run_campaign(_spec()).to_json()


class _LoggingTdmaScheme(TdmaScheme):
    """Appends one line per execution to a shared file — a cross-process
    execution counter (``O_APPEND`` writes of < PIPE_BUF bytes are atomic),
    so duplicate-execution assertions hold across coordinator + workers."""

    name = "logging-tdma"

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def run(self, population, front_end, rng, config, max_slots=None):
        result = super().run(population, front_end, rng, config, max_slots)
        with open(self.log_path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return dataclasses.replace(result, scheme=self.name)


@pytest.fixture
def logging_scheme(tmp_path):
    log_path = tmp_path / "executions.log"
    register_scheme(_LoggingTdmaScheme(log_path))
    try:
        yield log_path
    finally:
        schemes_module._REGISTRY.pop("logging-tdma", None)


def _execution_count(log_path):
    if not log_path.exists():
        return 0
    return len(log_path.read_text().splitlines())


class TestBackendConformance:
    """Every built-in backend, by name or as a configured instance →
    byte-identical result JSON."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(dict(backend="serial"), id="serial"),
            pytest.param(dict(jobs=2), id="process-pool-default"),
            pytest.param(
                dict(backend=ProcessPoolBackend(jobs=2, chunk_size=1)),
                id="process-pool-per-cell",
            ),
            pytest.param(
                dict(backend=ProcessPoolBackend(jobs=3, chunk_size=5)),
                id="process-pool-chunked",
            ),
            pytest.param(dict(backend="cache-queue"), id="cache-queue"),
        ],
    )
    def test_backend_bit_identical_to_serial(self, golden_json, tmp_path, kwargs):
        if kwargs.get("backend") == "cache-queue":
            kwargs = dict(kwargs, cache_dir=str(tmp_path))
        assert run_campaign(_spec(), **kwargs).to_json() == golden_json

    def test_backend_instance_passthrough(self, golden_json, tmp_path):
        """A pre-configured backend object is used as-is."""
        backend = CacheQueueBackend(lease_timeout=1.0, poll_interval=0.01)
        result = run_campaign(_spec(), backend=backend, cache_dir=str(tmp_path))
        assert result.to_json() == golden_json

    @fork_only
    def test_cache_queue_two_workers_no_duplicates(
        self, tmp_path, logging_scheme
    ):
        """A forked worker joins mid-campaign; the merged result equals the
        serial run and no cell executes twice across the two processes."""
        spec = _spec(schemes=("logging-tdma",))
        golden = run_campaign(spec).to_json()
        executed_serial = _execution_count(logging_scheme)
        assert executed_serial == spec.n_cells

        cache_dir = str(tmp_path / "shared-cache")
        ctx = multiprocessing.get_context("fork")
        worker = ctx.Process(
            target=run_worker,
            args=(cache_dir,),
            kwargs=dict(poll_interval=0.01, idle_timeout=5.0),
        )
        worker.start()
        try:
            result = run_campaign(
                spec,
                backend=CacheQueueBackend(lease_timeout=30.0, poll_interval=0.01),
                cache_dir=cache_dir,
            )
        finally:
            worker.join(timeout=30.0)
            if worker.is_alive():  # pragma: no cover - hang diagnostics
                worker.kill()
                pytest.fail("worker did not drain and exit")
        assert result.to_json() == golden
        # serial pass + exactly one distributed execution per cell
        assert _execution_count(logging_scheme) == 2 * spec.n_cells

    def test_killed_worker_lease_reaped_and_resumed(
        self, tmp_path, logging_scheme
    ):
        """Resume-after-kill: a worker executes part of the campaign and
        dies mid-cell (its lease left behind, backdated past the timeout).
        The next cache-queue run reaps the orphan lease and finishes with
        zero duplicate executions."""
        spec = _spec(schemes=("logging-tdma",))
        golden = run_campaign(spec).to_json()
        assert _execution_count(logging_scheme) == spec.n_cells

        cache = CampaignCache(tmp_path / "cache")
        # The "first run": a worker drains 3 cells off a published job...
        cache.publish_job(
            "doomed", pack_campaign(spec, {"logging-tdma": get_scheme("logging-tdma")})
        )
        executed = run_worker(
            cache.root, poll_interval=0.01, idle_timeout=0.0, max_cells=3
        )
        assert executed == 3
        # ...then dies mid-way through its 4th: lease claimed, no record.
        plan = plan_campaign(spec, cache)
        victim = plan.pending()[0]
        assert cache.claim(victim.key)
        lease = cache._lease_path(victim.key)
        stale = time.time() - 3600.0
        os.utime(lease, (stale, stale))

        result = run_campaign(
            spec,
            backend=CacheQueueBackend(lease_timeout=60.0, poll_interval=0.01),
            cache_dir=str(cache.root),
        )
        assert result.to_json() == golden
        # serial pass + exactly one distributed execution per cell: the
        # 3 worker cells were not re-run, the orphaned cell ran once.
        assert _execution_count(logging_scheme) == 2 * spec.n_cells
        assert cache.leases() == []  # the orphan was reaped

    def test_second_cache_queue_run_executes_nothing(
        self, tmp_path, logging_scheme
    ):
        spec = _spec(schemes=("logging-tdma",))
        first = run_campaign(spec, backend="cache-queue", cache_dir=str(tmp_path))
        executed = _execution_count(logging_scheme)
        assert executed == spec.n_cells
        second = run_campaign(spec, backend="cache-queue", cache_dir=str(tmp_path))
        assert _execution_count(logging_scheme) == executed
        assert second.to_json() == first.to_json()


class TestChildBootstrap:
    def test_pool_does_not_mutate_parent_environment(self, monkeypatch):
        """The pool's child bootstrap is a per-child initializer now; the
        parent's PYTHONPATH must stay untouched *while the pool is live*
        (observed from on_cell, which fires mid-execution) — two
        concurrent campaigns used to race on the process-wide mutate +
        restore."""
        monkeypatch.setenv("PYTHONPATH", "/sentinel")
        seen = []
        run_campaign(
            _spec(n_locations=1),
            jobs=2,
            on_cell=lambda cell, run, cached: seen.append(
                os.environ.get("PYTHONPATH")
            ),
        )
        assert seen and all(value == "/sentinel" for value in seen)
        assert os.environ["PYTHONPATH"] == "/sentinel"

    def test_spawn_children_bootstrap_without_parent_env(self, monkeypatch):
        """Spawned children import repro via the initializer + sys.path
        preparation even when the parent exports no PYTHONPATH at all."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        spec = _spec(n_locations=1, n_traces=1, schemes=("tdma",))
        serial = run_campaign(spec).to_json()
        spawned = run_campaign(
            spec, backend=ProcessPoolBackend(jobs=2, mp_context="spawn")
        ).to_json()
        assert spawned == serial


class TestStreaming:
    def test_on_cell_fires_once_per_cell(self):
        spec = _spec()
        events = []
        result = run_campaign(
            spec, on_cell=lambda cell, run, cached: events.append((cell, cached))
        )
        assert len(events) == spec.n_cells == len(result.runs)
        assert not any(cached for _, cached in events)
        assert [cell for cell, _ in events] == list(spec.cells())  # serial order

    def test_on_cell_reports_cache_hits_first(self, tmp_path):
        spec = _spec()
        run_campaign(spec, cache_dir=str(tmp_path))
        events = []
        run_campaign(
            spec,
            cache_dir=str(tmp_path),
            on_cell=lambda cell, run, cached: events.append(cached),
        )
        assert events == [True] * spec.n_cells

    def test_cells_stored_as_they_finish(self, tmp_path):
        """Streaming means resumability: mid-campaign, finished cells are
        already on disk — observed via the cache from inside on_cell."""
        spec = _spec(schemes=("tdma",))
        cache = CampaignCache(tmp_path)
        plan = plan_campaign(spec, cache)
        seen_on_disk = []

        def on_cell(cell, run, cached):
            done = sum(1 for key in plan.keys if cache.load_key(key) is not None)
            seen_on_disk.append(done)

        run_campaign(spec, cache_dir=str(tmp_path), on_cell=on_cell)
        # the i-th callback observed at least i cells already persisted
        assert all(done >= i + 1 for i, done in enumerate(seen_on_disk))


class TestPlan:
    def test_plan_addresses_every_cell(self):
        spec = _spec()
        plan = plan_campaign(spec)
        assert plan.n_cells == spec.n_cells == len(plan.keys)
        assert len(set(plan.keys)) == plan.n_cells  # addresses are unique
        assert [p.cell for p in plan.pending()] == list(spec.cells())
        assert plan.cached() == [] and not plan.is_complete()

    def test_plan_resolves_cache_hits(self, tmp_path):
        spec = _spec()
        run_campaign(spec, cache_dir=str(tmp_path))
        plan = plan_campaign(spec, CampaignCache(tmp_path))
        assert plan.is_complete() and plan.pending() == []
        assert plan.to_result().to_json() == run_campaign(spec).to_json()

    def test_incomplete_plan_refuses_to_assemble(self):
        plan = plan_campaign(_spec())
        with pytest.raises(RuntimeError, match="incomplete"):
            plan.to_result()


class TestRegistry:
    def test_builtins_registered(self):
        """Each built-in name resolves to the backend of that name."""
        assert BACKENDS == ("serial", "process-pool", "cache-queue")
        for name in BACKENDS:
            assert resolve_backend(name).name == name
        pool = resolve_backend("process-pool", jobs=3)
        assert isinstance(pool, ProcessPoolBackend) and pool.jobs == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(_spec(), backend="carrier-pigeon")

    def test_cache_queue_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache"):
            run_campaign(_spec(), backend="cache-queue")

    def test_default_resolution_keeps_historical_behaviour(self):
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
        pool = resolve_backend(None, jobs=4)
        assert isinstance(pool, ProcessPoolBackend) and pool.jobs == 4

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(_spec(), jobs=0)

    def test_backend_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=2, chunk_size=0)
        with pytest.raises(ValueError):
            CacheQueueBackend(lease_timeout=-1.0)
        with pytest.raises(ValueError):
            CacheQueueBackend(poll_interval=0.0)

    def test_user_backend_instance(self, golden_json):
        class ReversedSerialBackend(ExecutorBackend):
            """Runs pending cells in reverse order — the result must still
            assemble in grid order (cells are order-independent)."""

            name = "reversed-serial"

            def execute(self, ctx):
                for planned in reversed(ctx.plan.pending()):
                    ctx.emit(planned.index, ctx.run_pending(planned))

        result = run_campaign(_spec(), backend=ReversedSerialBackend())
        assert result.to_json() == golden_json


class TestPoolPlumbing:
    """The shared worker-process pieces the backends build on."""

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(100, 2) == 13  # ceil(100 / 8)
        assert default_chunk_size(10_000, 2) == 32  # capped
        assert all(
            1 <= default_chunk_size(n, j) <= 32
            for n in (1, 5, 50, 500)
            for j in (1, 2, 16)
        )

    def test_pool_initializer_idempotent(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setenv("PYTHONPATH", "/existing")
        pool_initializer("/bootstrap/src")
        pool_initializer("/bootstrap/src")
        assert sys.path.count("/bootstrap/src") == 1
        parts = os.environ["PYTHONPATH"].split(os.pathsep)
        assert parts.count("/bootstrap/src") == 1
        assert parts == ["/bootstrap/src", "/existing"]  # prepended once


class TestQueueEnvelope:
    def test_pack_unpack_round_trip(self):
        spec = _spec()
        schemes = {name: get_scheme(name) for name in spec.schemes}
        payload = pack_campaign(spec, schemes)
        unpacked = unpack_campaign(payload)
        assert unpacked is not None
        spec2, schemes2 = unpacked
        assert spec2 == spec and set(schemes2) == set(schemes)

    def test_unreadable_envelope_skipped(self):
        assert unpack_campaign(b"not a pickle") is None

    def test_worker_ignores_garbage_job(self, tmp_path):
        cache = CampaignCache(tmp_path)
        cache.publish_job("junk", b"not a pickle")
        assert run_worker(tmp_path, poll_interval=0.01, idle_timeout=0.0) == 0

    def test_worker_validates_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            run_worker(tmp_path, poll_interval=0.0)
        with pytest.raises(ValueError):
            run_worker(tmp_path, idle_timeout=-1.0)
