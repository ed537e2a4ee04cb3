"""The cache-coordinated work queue's worker side.

A campaign run with the ``cache-queue`` backend publishes a pickled
*envelope* (spec + scheme objects) into the shared cache's ``queue/``
directory. :func:`run_worker` is the other half: any process — on this
host or another host mounting the same cache directory — scans the
published envelopes, plans each campaign against the cache, claims
pending cells via atomic lease files, executes them, and stores the
results where the coordinator (and every other worker) will find them.

``python -m repro worker --cache-dir DIR`` wraps this loop, so joining a
running campaign from a second terminal or second machine is one command.

Envelopes are pickles, which ships user-registered scheme objects by
value (matching the process-pool backend) but requires every worker to
run the same code revision — see the multi-host caveat in
:mod:`repro.engine.cache`. A worker that cannot unpickle an envelope
skips it for now and retries on later sweeps with a bounded backoff: a
read that raced the coordinator's publish heals on the next attempt,
while genuine version skew or a foreign file just keeps being skipped
cheaply instead of crashing the fleet.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.engine.cache import CampaignCache
from repro.engine.campaign import CampaignSpec, run_cell
from repro.engine.plan import plan_campaign
from repro.engine.registry import UplinkScheme

__all__ = ["pack_campaign", "unpack_campaign", "claim_and_execute", "run_worker"]

#: Envelope format marker — bumped if the payload layout ever changes.
_ENVELOPE_VERSION = 1

#: Ceiling of the unreadable-envelope retry backoff (seconds). Attempts
#: double from the poll interval up to this, so a transiently unreadable
#: envelope is retried within a sweep or two while a permanently foreign
#: one costs one unpickle attempt per ~half minute, not per sweep.
_UNREADABLE_RETRY_CAP_S = 30.0

#: Default lease-heartbeat period (seconds) — the ``--heartbeat`` default.
#: Far below any sane reap timeout (``cache --prune-leases`` defaults to
#: 3600 s; the coordinator's ``lease_timeout`` to 60 s), so a live worker's
#: lease always looks fresh to every reaper.
DEFAULT_HEARTBEAT_S = 15.0


def pack_campaign(spec: CampaignSpec, schemes: Dict[str, UplinkScheme]) -> bytes:
    """Serialize a campaign envelope for :meth:`CampaignCache.publish_job`."""
    return pickle.dumps(
        {"version": _ENVELOPE_VERSION, "spec": spec, "schemes": schemes}
    )


def unpack_campaign(
    payload: bytes,
) -> Optional[Tuple[CampaignSpec, Dict[str, UplinkScheme]]]:
    """Inverse of :func:`pack_campaign`; ``None`` for anything unreadable."""
    try:
        envelope = pickle.loads(payload)
        if envelope.get("version") != _ENVELOPE_VERSION:
            return None
        return envelope["spec"], envelope["schemes"]
    except Exception:  # version skew / foreign file — skip, don't crash
        return None


class _LeaseHeartbeat:
    """One daemon thread that refreshes every lease this process holds.

    Starting and joining a thread per claimed cell costs more than a
    cheap cell itself, so claimants register the held lease here instead
    (:meth:`hold`) and unregister it before releasing (:meth:`drop`). The
    thread starts on first use and sleeps until the earliest lease is
    due; a new lease wakes it only if it falls due before that, so a
    claimant running many short cells never switches threads per cell.
    Leases are touched under the registry lock, so once :meth:`drop`
    returns the lease is never touched again.
    """

    def __init__(self) -> None:
        self._reset()
        if hasattr(os, "register_at_fork"):
            # A forked child inherits neither the thread nor a usable lock.
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._cond = threading.Condition()
        self._held: Dict[int, list] = {}  # token -> [cache, key, period, due]
        self._tokens = itertools.count()
        self._thread: Optional[threading.Thread] = None
        self._wake = float("inf")  # when the thread next looks at the leases

    def hold(self, cache: CampaignCache, key: str, period: float) -> int:
        with self._cond:
            token = next(self._tokens)
            due = time.monotonic() + period
            self._held[token] = [cache, key, period, due]
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="lease-heartbeat", daemon=True
                )
                self._thread.start()
            elif due < self._wake:
                self._cond.notify()
            return token

    def drop(self, token: int) -> None:
        with self._cond:
            self._held.pop(token, None)

    def _loop(self) -> None:
        cond = self._cond
        with cond:
            while True:
                now = time.monotonic()
                for entry in self._held.values():
                    if entry[3] <= now:
                        entry[0].touch_lease(entry[1])
                        entry[3] = now + entry[2]
                self._wake = min(
                    (entry[3] for entry in self._held.values()), default=float("inf")
                )
                if self._wake == float("inf"):
                    cond.wait()
                else:
                    cond.wait(max(self._wake - time.monotonic(), 0.0))


_HEARTBEAT = _LeaseHeartbeat()


def claim_and_execute(cache, spec, schemes, planned, heartbeat_s=None):
    """The work queue's core step, shared by coordinator and workers.

    Claim the cell's lease → re-check the record *under the lease* (the
    caller's plan is a snapshot, and another party may have completed the
    cell and released since it was computed — executing now would
    duplicate its work) → execute → store atomically → release.

    ``heartbeat_s`` enables the lease-heartbeat contract (see
    :mod:`repro.engine.cache`): the process's heartbeat thread refreshes
    the held lease's mtime every ``heartbeat_s`` seconds for as long as
    the cell executes, so a reaper whose timeout is shorter than one
    cell's runtime no longer takes a *live* worker's lease and re-issues
    the cell. ``None``/``0`` disables the heartbeat (the pre-heartbeat
    behaviour).

    Returns ``None`` when the lease was not ours to take, else
    ``(run, executed)`` where ``executed`` is ``False`` if the re-check
    found another party's record. Keeping this in one place is what keeps
    the coordinator (:class:`~repro.engine.backends.CacheQueueBackend`)
    and :func:`run_worker` protocol-identical — a divergence here would
    be a cross-process bug no single-process test can see.
    """
    if not cache.claim(planned.key):
        return None  # in flight elsewhere
    token = None
    if heartbeat_s is not None and heartbeat_s > 0:
        token = _HEARTBEAT.hold(cache, planned.key, heartbeat_s)
    try:
        run = cache.load_key(planned.key)
        if run is not None:
            return run, False
        run = run_cell(spec, planned.cell, scheme=schemes[planned.cell.scheme])
        cache.store_key(planned.key, run)
        return run, True
    finally:
        if token is not None:
            _HEARTBEAT.drop(token)
        cache.release(planned.key)


class _UnreadableJob:
    """Retry state for an envelope that failed to unpickle.

    Tracks how many attempts failed and when the next one is due; the
    delay doubles from the worker's poll interval up to
    ``_UNREADABLE_RETRY_CAP_S`` and then stays there — the envelope is
    retried forever (a coordinator may re-publish a readable one under
    the same id), just never more than once per cap interval.
    """

    __slots__ = ("attempts", "next_attempt")

    def __init__(self) -> None:
        self.attempts = 0
        self.next_attempt = 0.0

    def record_failure(self, poll_interval: float) -> None:
        self.attempts += 1
        delay = min(
            poll_interval * (2.0 ** (self.attempts - 1)), _UNREADABLE_RETRY_CAP_S
        )
        self.next_attempt = time.monotonic() + delay

    def due(self) -> bool:
        return time.monotonic() >= self.next_attempt


def run_worker(
    cache_dir,
    poll_interval: float = 0.5,
    idle_timeout: float = 0.0,
    max_cells: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
    heartbeat_s: Optional[float] = DEFAULT_HEARTBEAT_S,
) -> int:
    """Join published campaigns as one worker; return cells executed.

    Scans the cache's published envelopes and runs the claim → execute →
    store → release loop over every pending cell. Exits once no claimable
    work has been seen for ``idle_timeout`` seconds (``0`` drains what is
    queued right now and exits immediately after); pass a positive
    timeout when starting the worker *before* or *alongside* a
    coordinator so it waits for the campaign to appear. ``max_cells``
    bounds the work done (mainly for tests and gradual scale-out);
    ``echo`` receives one progress line per executed cell. ``heartbeat_s``
    is the lease-refresh period forwarded to :func:`claim_and_execute`
    (``None``/``0`` disables heartbeats).
    """
    if poll_interval <= 0:
        raise ValueError("poll_interval must be > 0")
    if idle_timeout < 0:
        raise ValueError("idle_timeout must be >= 0")
    if heartbeat_s is not None and heartbeat_s < 0:
        raise ValueError("heartbeat_s must be >= 0 (or None)")
    cache = CampaignCache(cache_dir)
    executed = 0
    idle_since: Optional[float] = None
    # Envelopes are immutable once published, so unpickling and planning
    # happen once per job, not once per poll sweep; per sweep each cell
    # costs one `contains` stat (plus the claim protocol for the few that
    # are actually pending), keeping a waiting worker's footprint on a
    # shared filesystem flat instead of O(completed cells). An envelope
    # that fails to unpickle (a read racing the publish, version skew)
    # parks as an _UnreadableJob and is re-attempted with bounded backoff
    # instead of being written off until worker restart.
    plans: Dict[str, object] = {}
    while True:
        claimed_any = False
        jobs = cache.load_jobs()
        live_ids = {job_id for job_id, _ in jobs}
        for stale_id in set(plans) - live_ids:
            del plans[stale_id]
        for job_id, payload in jobs:
            entry = plans.get(job_id)
            if isinstance(entry, _UnreadableJob) and entry.due():
                campaign = unpack_campaign(payload)
                if campaign is None:
                    entry.record_failure(poll_interval)
                else:
                    entry = plans[job_id] = (*campaign, plan_campaign(campaign[0]))
            elif entry is None:
                campaign = unpack_campaign(payload)
                if campaign is None:
                    entry = plans[job_id] = _UnreadableJob()
                    entry.record_failure(poll_interval)
                else:
                    entry = plans[job_id] = (*campaign, plan_campaign(campaign[0]))
            if isinstance(entry, _UnreadableJob):
                continue  # unreadable right now — backoff running
            spec, schemes, plan = entry
            for planned in plan.pending():
                if max_cells is not None and executed >= max_cells:
                    return executed
                if cache.contains(planned.key):
                    continue  # completed (by anyone) on an earlier sweep
                outcome = claim_and_execute(
                    cache, spec, schemes, planned, heartbeat_s=heartbeat_s
                )
                if outcome is None or not outcome[1]:
                    continue  # in flight elsewhere, or done by the time we won
                executed += 1
                claimed_any = True
                if echo is not None:
                    echo(
                        f"[worker] job {job_id[:8]} cell {planned.index + 1}/"
                        f"{plan.n_cells} {planned.cell.scheme} "
                        f"loc={planned.cell.location} trace={planned.cell.trace}"
                    )
        if claimed_any:
            idle_since = None
            continue
        now = time.monotonic()
        if idle_since is None:
            idle_since = now
        if now - idle_since >= idle_timeout:
            return executed
        time.sleep(poll_interval)
