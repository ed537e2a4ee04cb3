"""Executor backends: the second stage of plan → execute → stream.

An :class:`ExecutorBackend` takes a resolved :class:`~repro.engine.plan.
CampaignPlan` and runs its pending cells, emitting each finished cell to
the orchestrator (:func:`repro.engine.campaign.run_campaign`) which owns
caching, streaming callbacks and grid-order assembly. Backends differ
only in *where* cells run; because every cell re-derives its randomness
from ``(root_seed, keys)``, all backends are bit-identical for the same
spec — the conformance suite (``tests/engine/test_backends.py``) pins
byte-identical ``CampaignResult.to_json()`` across the three built-ins
and configured instances of them.

``run_campaign(backend=...)`` takes one of the :data:`BACKENDS` names
(the built-in with its defaults, and the process pool sized by ``jobs``)
or a configured :class:`ExecutorBackend` instance — the way to set a
pool's start method or chunk size, a queue's lease timing, or to run a
backend of one's own. Built-ins:

* ``serial`` — in-process loop in grid order (the reference);
* ``process-pool`` — a ``ProcessPoolExecutor`` fan-out with *chunked*
  dispatch: pending cells are grouped so the per-task pickling of the
  spec and scheme objects is paid per chunk, not per cell, and chunks
  stream back as they complete;
* ``cache-queue`` — the distributed backend: the coordinator publishes
  the campaign into the shared :class:`~repro.engine.cache.CampaignCache`
  and then behaves as one worker among many, claiming cells via atomic
  lease files. Any number of ``python -m repro worker --cache-dir ...``
  processes — on this host or any host mounting the cache directory —
  join the same campaign; the coordinator polls the cache for cells
  others complete and reaps orphaned leases left by dead workers.

The pool's worker plumbing lives here too: :func:`pool_initializer`
(the per-child bootstrap) and :func:`default_chunk_size`.
"""

from __future__ import annotations

import abc
import math
import multiprocessing
import os
import sys
import time
import uuid
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional

from repro.engine.cache import CampaignCache
from repro.engine.campaign import CampaignSpec, SchemeRun, run_cell
from repro.engine.plan import CampaignPlan, PlannedCell
from repro.engine.registry import UplinkScheme

#: How often a live coordinator freshens its published envelope's mtime —
#: far below any sane ``cache --prune-jobs --max-age`` (default 3600 s).
_JOB_HEARTBEAT_S = 30.0

#: Ceiling of the coordinator's derived lease-heartbeat period (matches
#: the worker CLI's ``--heartbeat`` default).
_LEASE_HEARTBEAT_CAP_S = 15.0

__all__ = [
    "BACKENDS",
    "ExecutionContext",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "CacheQueueBackend",
    "resolve_backend",
]


@dataclass
class ExecutionContext:
    """Everything a backend needs to run a plan's pending cells.

    ``emit(index, run, store=True)`` hands one finished cell back to the
    orchestrator, which records it, writes it to the cache (unless
    ``store=False`` — the cell was *loaded* from the cache, e.g. by the
    work-queue coordinator finding another worker's result) and fires the
    ``on_cell`` streaming callback. Backends may emit in any completion
    order; the final result is always assembled in grid order.
    """

    spec: CampaignSpec
    plan: CampaignPlan
    schemes: Dict[str, UplinkScheme]
    emit: Callable[..., None]
    cache: Optional[CampaignCache] = None

    def run_pending(self, planned: PlannedCell) -> SchemeRun:
        """Evaluate one pending cell in this process."""
        return run_cell(
            self.spec, planned.cell, scheme=self.schemes[planned.cell.scheme]
        )


class ExecutorBackend(abc.ABC):
    """Strategy interface: run a plan's pending cells, emit as they finish."""

    #: Name in messages; a built-in's entry in :data:`BACKENDS`.
    name: ClassVar[str] = ""
    #: Whether the backend needs a shared cache directory to coordinate.
    requires_cache: ClassVar[bool] = False

    @abc.abstractmethod
    def execute(self, ctx: ExecutionContext) -> None:
        """Run every pending cell of ``ctx.plan``, emitting each result.

        :func:`~repro.engine.campaign.run_campaign` calls this only for
        a plan with at least one pending cell.
        """


class SerialBackend(ExecutorBackend):
    """In-process execution in grid order — the reference backend."""

    name = "serial"

    def execute(self, ctx: ExecutionContext) -> None:
        for planned in ctx.plan.pending():
            ctx.emit(planned.index, ctx.run_pending(planned))


def _run_chunk(
    spec: CampaignSpec, schemes: Dict[str, UplinkScheme], chunk: List[PlannedCell]
) -> List[SchemeRun]:
    """Pool task: evaluate one chunk of cells inside a worker process."""
    return [
        run_cell(spec, planned.cell, scheme=schemes[planned.cell.scheme])
        for planned in chunk
    ]


def _src_root() -> str:
    """Directory that makes ``import repro`` work in a spawned child."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def pool_initializer(src_root: str) -> None:
    """Per-child bootstrap: make ``repro`` importable inside the worker,
    even when the repo runs uninstalled (``PYTHONPATH=src``).

    Runs in the *child* process, so it can set ``sys.path`` and
    ``PYTHONPATH`` without racing anything in the parent. The ``spawn``
    machinery already ships the parent's ``sys.path``; pinning the source
    root into ``PYTHONPATH`` as well lets the child's own subprocesses
    inherit it. Idempotent.
    """
    if src_root not in sys.path:
        sys.path.insert(0, src_root)
    existing = os.environ.get("PYTHONPATH")
    parts = existing.split(os.pathsep) if existing else []
    if src_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_root] + parts)


def default_chunk_size(n_items: int, jobs: int) -> int:
    """Dispatch granularity that amortizes pickling/IPC without starving.

    Each pool task re-pickles its closure (spec + scheme objects), so
    per-item dispatch pays that serialization once *per cell* — brutal on
    grids of tiny cells. Chunking pays it once per chunk; four chunks per
    worker keeps the pool load-balanced when cell costs vary, and the cap
    of 32 bounds the loss when one chunk lands on a slow cell.
    """
    return max(1, min(32, math.ceil(n_items / (jobs * 4))))


class ProcessPoolBackend(ExecutorBackend):
    """Chunked ``ProcessPoolExecutor`` fan-out.

    One dispatched task carries a *chunk* of cells, so the spec and scheme
    objects are pickled once per chunk instead of once per cell —
    ``benchmarks/test_bench_executors.py`` gates the amortization at ≥ 2×
    over per-cell dispatch on a grid of tiny cells. Chunks are emitted as
    they complete (any order); schemes ship to workers by value, so
    user-registered schemes run even in spawned children whose registries
    only hold the built-ins.
    """

    name = "process-pool"

    def __init__(
        self,
        jobs: int = 2,
        mp_context: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.jobs = jobs
        self.mp_context = mp_context
        self.chunk_size = chunk_size

    def execute(self, ctx: ExecutionContext) -> None:
        pending = ctx.plan.pending()
        jobs = min(self.jobs, len(pending))
        size = (
            self.chunk_size
            if self.chunk_size is not None
            else default_chunk_size(len(pending), jobs)
        )
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        context = multiprocessing.get_context(self.mp_context)
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=pool_initializer,
            initargs=(_src_root(),),
        ) as pool:
            futures = {
                pool.submit(_run_chunk, ctx.spec, ctx.schemes, chunk): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                for planned, run in zip(futures[future], future.result()):
                    ctx.emit(planned.index, run)


class CacheQueueBackend(ExecutorBackend):
    """Multi-process / multi-host execution coordinated through the cache.

    The coordinator publishes the campaign envelope into the cache's
    ``queue/`` directory, then loops over the plan's pending cells:

    * a cell whose record appears in the cache was completed by some
      worker — load and emit it;
    * otherwise try to :meth:`~repro.engine.cache.CampaignCache.claim`
      its lease; on success execute it here (the coordinator is itself a
      worker), store, release, emit;
    * a cell whose lease is held by someone else is skipped this sweep.

    When a sweep makes no progress the coordinator reaps orphaned leases
    older than ``lease_timeout`` (a worker died mid-cell; the cell
    becomes claimable again) and sleeps ``poll_interval``. Joining
    workers run the same claim/execute/store loop — see
    :func:`repro.engine.queue.run_worker`. Every cell is *stored* exactly
    once by whoever wins its lease; the merged result is bit-identical to
    the serial backend because cells are pure functions of the spec.

    While executing a cell itself, the coordinator heartbeats the held
    lease every ``heartbeat`` seconds (default: derived from its own
    ``lease_timeout``, comfortably below it) so that another party
    reaping with a similar timeout never takes a lease this live process
    is working under — the heartbeat contract in
    :mod:`repro.engine.cache`. ``heartbeat=0`` disables the refresh.
    """

    name = "cache-queue"
    requires_cache = True

    def __init__(
        self,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.05,
        heartbeat: Optional[float] = None,
    ) -> None:
        if lease_timeout < 0:
            raise ValueError("lease_timeout must be >= 0")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if heartbeat is not None and heartbeat < 0:
            raise ValueError("heartbeat must be >= 0 (or None)")
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        if heartbeat is None:
            # A quarter of our own reap timeout keeps a live lease at
            # most 25 % "aged" in the eyes of any reaper at least as
            # patient as we are, capped at the worker default.
            heartbeat = min(lease_timeout / 4.0, _LEASE_HEARTBEAT_CAP_S)
        self.heartbeat = heartbeat

    def execute(self, ctx: ExecutionContext) -> None:
        from repro.engine.queue import claim_and_execute, pack_campaign

        cache = ctx.cache
        if cache is None:
            raise ValueError("cache-queue backend requires a cache_dir")
        remaining = {planned.index: planned for planned in ctx.plan.pending()}
        job_id = uuid.uuid4().hex
        cache.publish_job(job_id, pack_campaign(ctx.spec, ctx.schemes))
        last_heartbeat = time.monotonic()

        def heartbeat() -> None:
            # A coordinator busy executing cells for hours is just as
            # alive as one waiting on workers, so this runs per cell, not
            # per sweep — age-based job pruning must never take a live
            # campaign's envelope away.
            nonlocal last_heartbeat
            now = time.monotonic()
            if now - last_heartbeat >= _JOB_HEARTBEAT_S:
                cache.touch_job(job_id)
                last_heartbeat = now

        try:
            while remaining:
                progressed = False
                for index in sorted(remaining):
                    heartbeat()
                    planned = remaining[index]
                    run = cache.load_key(planned.key)
                    outcome = (
                        (run, False)
                        if run is not None  # a worker beat us to it
                        else claim_and_execute(
                            cache,
                            ctx.spec,
                            ctx.schemes,
                            planned,
                            heartbeat_s=self.heartbeat,
                        )
                    )
                    if outcome is None:
                        continue  # leased by someone else — revisit next sweep
                    ctx.emit(index, outcome[0], store=False)  # already stored
                    del remaining[index]
                    progressed = True
                if remaining and not progressed:
                    if cache.reap_leases(self.lease_timeout) == 0:
                        time.sleep(self.poll_interval)
        finally:
            cache.remove_job(job_id)


#: The built-in backends' names: ``run_campaign(backend=<name>)`` and the
#: CLI's ``--backend`` choices.
BACKENDS = (SerialBackend.name, ProcessPoolBackend.name, CacheQueueBackend.name)


def resolve_backend(backend, jobs: int = 1) -> ExecutorBackend:
    """Turn ``run_campaign``'s ``backend=`` argument into a backend object.

    ``None`` keeps the historical default: serial for ``jobs == 1``, the
    process pool otherwise. A :data:`BACKENDS` name builds that built-in
    with its defaults (the pool with ``jobs`` workers). An
    :class:`ExecutorBackend` instance passes through unchanged — the
    caller configured it directly.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        backend = SerialBackend.name if jobs == 1 else ProcessPoolBackend.name
    if backend == SerialBackend.name:
        return SerialBackend()
    if backend == ProcessPoolBackend.name:
        return ProcessPoolBackend(jobs=jobs)
    if backend == CacheQueueBackend.name:
        return CacheQueueBackend()
    raise ValueError(
        f"unknown backend {backend!r}; built-ins: {', '.join(BACKENDS)} "
        f"(or pass an ExecutorBackend instance)"
    )
