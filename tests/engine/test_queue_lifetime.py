"""Lease-lifetime regression suite: the three work-queue liveness bugs.

Covers the ISSUE 9 bugfixes end to end:

* **Heartbeat** — a cell whose runtime exceeds the reaper timeout several
  times over executes exactly once while an aggressive reaper plus a
  rival claimant hammer its lease (the pre-fix behaviour re-issued the
  cell mid-execution and duplicated the work).
* **Clock domains** — lease/job staleness is measured against the cache
  filesystem's own clock, so a worker whose local ``time.time()`` is
  hours ahead no longer reaps every *fresh* lease on sight.
* **Envelope retry** — a job envelope that fails to unpickle is retried
  with bounded backoff instead of being cached as ``None`` forever, so a
  worker that raced a partially written envelope recovers once a
  readable one lands under the same id.
"""

import dataclasses
import os
import threading
import time

import pytest

from repro.engine import CampaignCache, CampaignSpec, plan_campaign, run_campaign
from repro.engine import schemes as schemes_module
from repro.engine.queue import claim_and_execute, pack_campaign, run_worker
from repro.engine.schemes import TdmaScheme, register_scheme
from repro.network.scenarios import default_uplink_scenario


def _spec(**overrides):
    defaults = dict(
        scenario=default_uplink_scenario(4),
        root_seed=2024,
        n_locations=1,
        n_traces=1,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class _SlowTdmaScheme(TdmaScheme):
    """A cell that outlives any aggressive reap timeout by a wide margin,
    logging one line per execution (``O_APPEND`` writes are atomic, so the
    count is exact across threads and processes)."""

    name = "slow-tdma"

    def __init__(self, log_path, sleep_s=0.75):
        self.log_path = str(log_path)
        self.sleep_s = sleep_s

    def run(self, population, front_end, rng, config, max_slots=None):
        time.sleep(self.sleep_s)
        result = super().run(population, front_end, rng, config, max_slots)
        with open(self.log_path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return dataclasses.replace(result, scheme=self.name)


@pytest.fixture
def slow_scheme(tmp_path):
    log_path = tmp_path / "slow-executions.log"
    register_scheme(_SlowTdmaScheme(log_path))
    try:
        yield log_path
    finally:
        schemes_module._REGISTRY.pop("slow-tdma", None)


def _execution_count(log_path):
    if not log_path.exists():
        return 0
    return len(log_path.read_text().splitlines())


class TestLeaseHeartbeat:
    def test_slow_cell_survives_aggressive_reaper(self, tmp_path, slow_scheme):
        """ISSUE 9 acceptance: a cell running ~3x the reap timeout executes
        exactly once while the reaper fires and a rival tries to claim."""
        cache = CampaignCache(tmp_path / "cache")
        spec = _spec(schemes=("slow-tdma",))
        plan = plan_campaign(spec, cache)
        planned = plan.pending()[0]
        schemes = {"slow-tdma": schemes_module._REGISTRY["slow-tdma"]}

        outcome = {}

        def _holder():
            outcome["result"] = claim_and_execute(
                cache, spec, schemes, planned, heartbeat_s=0.05
            )

        holder = threading.Thread(target=_holder)
        holder.start()
        deadline = time.time() + 5.0
        while not cache.leases() and holder.is_alive() and time.time() < deadline:
            time.sleep(0.01)
        # Reap at 1/3 of the cell's runtime and immediately try to steal
        # the cell — with a live heartbeat the lease never looks stale.
        rival_outcomes = []
        while holder.is_alive():
            cache.reap_leases(max_age_s=0.25)
            rival_outcomes.append(
                claim_and_execute(cache, spec, schemes, planned)
            )
            time.sleep(0.05)
        holder.join()

        run, executed = outcome["result"]
        assert executed is True
        assert _execution_count(slow_scheme) == 1
        # The rival either found the lease held (None) or, after the
        # holder finished, found the stored record (executed=False).
        assert all(r is None or r[1] is False for r in rival_outcomes)
        assert cache.leases() == []
        assert cache.load_key(planned.key) is not None

    def test_heartbeats_share_one_thread(self, tmp_path, monkeypatch):
        """Heartbeated cells register with one process-wide thread instead
        of starting and joining a thread each."""
        spec = _spec(n_traces=6)
        cache = CampaignCache(tmp_path / "cache")
        plan = plan_campaign(spec, cache)
        schemes = {name: schemes_module.get_scheme(name) for name in spec.schemes}
        claim_and_execute(cache, spec, schemes, plan.pending()[0], heartbeat_s=5.0)
        started = []
        real_start = threading.Thread.start

        def _counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", _counting_start)
        for planned in plan.pending()[1:]:
            run, executed = claim_and_execute(
                cache, spec, schemes, planned, heartbeat_s=5.0
            )
            assert executed is True
        assert started == []
        assert cache.leases() == []

    def test_heartbeat_refreshes_lease_mtime(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        assert cache.claim("somekey")
        lease = cache._lease_path("somekey")
        stale = time.time() - 3600.0
        os.utime(lease, (stale, stale))
        before = os.stat(lease).st_mtime
        cache.touch_lease("somekey")
        assert os.stat(lease).st_mtime > before
        cache.release("somekey")

    def test_touch_lease_tolerates_missing_lease(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cache.touch_lease("never-claimed")  # must not raise


class TestClockDomains:
    """Staleness must come from the cache FS clock, not local time.time()."""

    def test_skewed_local_clock_does_not_reap_fresh_lease(
        self, tmp_path, monkeypatch
    ):
        cache = CampaignCache(tmp_path / "cache")
        assert cache.claim("fresh")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        assert cache.reap_leases(max_age_s=3600.0) == 0
        assert cache.leases() == ["fresh"]
        cache.release("fresh")

    def test_genuinely_stale_lease_still_reaped_under_skew(
        self, tmp_path, monkeypatch
    ):
        cache = CampaignCache(tmp_path / "cache")
        assert cache.claim("stale")
        lease = cache._lease_path("stale")
        old = time.time() - 7200.0
        os.utime(lease, (old, old))
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        assert cache.reap_leases(max_age_s=3600.0) == 1
        assert cache.leases() == []

    def test_skewed_local_clock_does_not_reap_fresh_job(
        self, tmp_path, monkeypatch
    ):
        cache = CampaignCache(tmp_path / "cache")
        cache.publish_job("job-1", b"payload")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        assert cache.reap_jobs(max_age_s=3600.0) == 0
        assert [job_id for job_id, _ in cache.load_jobs()] == ["job-1"]

    def test_genuinely_stale_job_still_reaped_under_skew(
        self, tmp_path, monkeypatch
    ):
        cache = CampaignCache(tmp_path / "cache")
        cache.publish_job("job-1", b"payload")
        path = cache.root / "queue" / "job-1.job"
        old = time.time() - 7200.0
        os.utime(path, (old, old))
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        assert cache.reap_jobs(max_age_s=3600.0) == 1
        assert cache.load_jobs() == []


class TestEnvelopeRetry:
    def test_unreadable_envelope_recovers_after_republish(self, tmp_path):
        """A garbage envelope must not poison its job id: once a readable
        envelope lands under the same id, the worker executes it."""
        cache_dir = tmp_path / "cache"
        cache = CampaignCache(cache_dir)
        spec = _spec(schemes=("tdma",))
        job_id = "campaign-retry"
        cache.publish_job(job_id, b"not a pickle")

        executed = {}

        def _work():
            executed["cells"] = run_worker(
                cache_dir,
                poll_interval=0.02,
                idle_timeout=3.0,
                max_cells=spec.n_cells,
            )

        worker = threading.Thread(target=_work)
        worker.start()
        # Let the worker hit the unreadable envelope at least once, then
        # overwrite it with a readable one under the same id.
        time.sleep(0.2)
        schemes = {"tdma": schemes_module._REGISTRY["tdma"]}
        cache.publish_job(job_id, pack_campaign(spec, schemes))
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert executed["cells"] == spec.n_cells

    def test_unreadable_envelope_alone_executes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        CampaignCache(cache_dir).publish_job("garbage", b"\x00\x01")
        assert run_worker(cache_dir, poll_interval=0.02, idle_timeout=0.0) == 0

    def test_worker_matches_serial_bytes_after_retry(self, tmp_path):
        """The recovered envelope's cells merge into the canonical result."""
        cache_dir = tmp_path / "cache"
        cache = CampaignCache(cache_dir)
        spec = _spec(schemes=("tdma",))
        golden = run_campaign(spec).to_json()
        cache.publish_job("retry-bytes", b"broken")
        worker = threading.Thread(
            target=run_worker,
            args=(cache_dir,),
            kwargs=dict(poll_interval=0.02, idle_timeout=3.0, max_cells=spec.n_cells),
        )
        worker.start()
        time.sleep(0.2)
        schemes = {"tdma": schemes_module._REGISTRY["tdma"]}
        cache.publish_job("retry-bytes", pack_campaign(spec, schemes))
        worker.join(timeout=30.0)
        plan = plan_campaign(spec, cache)
        assert plan.is_complete()
        assert plan.to_result().to_json() == golden
