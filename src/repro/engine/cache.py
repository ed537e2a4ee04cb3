"""Content-addressed per-cell campaign result cache — and the shared
medium the multi-host work queue coordinates through.

A campaign cell is a pure function of ``(root_seed, cell RNG keys,
scenario, config, max_slots)`` — the determinism contract
:mod:`repro.engine.campaign` already guarantees for executor parity. That
makes its :class:`~repro.engine.registry.SchemeRun` cacheable by content
address: hash the inputs, store the record as JSON, and a re-run of the
same spec (or any spec sharing cells with it) loads instead of executing.

Layout
------
The cache is a plain directory tree; every write is atomic (temp file +
rename on the cell shards, ``O_CREAT | O_EXCL`` on leases), so any number
of campaigns, workers and hosts can share one directory — over NFS or any
filesystem with atomic rename/exclusive-create semantics::

    <root>/<k[:2]>/<key>.json   cell records (sharded by hash prefix)
    <root>/leases/<key>.lease   in-flight claims (the work queue's locks)
    <root>/queue/<id>.job       published campaign envelopes (pickle)

Corrupt or foreign files are treated as misses, never errors.

Lease format and lifecycle
--------------------------
A lease is a claim on one cell: a file named ``<key>.lease`` created with
``O_CREAT | O_EXCL`` (exclusive-create is the atomicity primitive — exactly
one claimant wins, even across hosts). Its payload is one JSON object,
``{"pid": ..., "host": ..., "claimed_at": <unix seconds>}``, recorded for
operators; *staleness is judged by file mtime*, not by the payload, so a
clock-skewed host cannot manufacture an immortal lease. The claim protocol
is claim → execute → store (atomic) → release; a worker that dies mid-cell
leaves its lease behind, and :meth:`CampaignCache.reap_leases` removes
leases older than a timeout (or whose cell record already exists) so the
cell can be re-claimed. The stored record, not the lease, is the source of
truth: losing a lease race after storing is harmless.

**Heartbeat contract.** A lease's mtime is a *liveness signal*, not a
birthdate: the holder must refresh it (:meth:`CampaignCache.touch_lease`)
at a period well below every reaper's timeout while it executes the cell.
:func:`repro.engine.queue.claim_and_execute` registers the held lease with
the process's background heartbeat thread for exactly this (``python -m
repro worker --heartbeat`` sets the interval; the ``cache-queue``
coordinator derives one from its own ``lease_timeout``), so a cell that
takes arbitrarily longer than any reaper's timeout keeps its lease and
executes exactly once. A lease that stops freshening is therefore presumed dead and reaped; reaping a *live*
but non-heartbeating claimant's lease is still safe for correctness — the
cell merely executes twice and the atomic store makes the duplicate a
no-op — so the heartbeat is a work-deduplication guarantee, not a safety
requirement.

**Clock domains.** Staleness is measured as ``mtime_now − mtime_lease``
where *both* timestamps come from the cache's own filesystem: reapers
obtain "now" by creating a probe file in the cache and reading the mtime
the filesystem stamped on it, never from the local ``time.time()``. On a
shared (e.g. NFS) cache, a reaper whose wall clock runs minutes ahead of
the file server's would otherwise see every fresh lease as already
expired and reap live workers wholesale.

**The key covers a cell's data inputs, not the code that evaluates it.**
Scheme names stand in for scheme implementations, so editing a scheme,
the decoder, or the PHY between runs serves results computed by the old
code. This matters doubly for multi-host sharing: every worker attached to
a cache directory must run the *same code revision*, or the merged result
silently mixes implementations — the cache cannot detect the difference.
Delete the cache directory (or point at a fresh one, or run
``python -m repro cache --gc-format``) after any change to the simulation
code; ``_CACHE_FORMAT`` is bumped when the key material or record layout
itself changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.campaign import _cell_rng_keys
from repro.engine.registry import SchemeRun
from repro.utils.plain import plain_data

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.campaign import CampaignCell, CampaignSpec

__all__ = ["CampaignCache", "cell_cache_key", "spec_cell_keys"]

#: Bump when the key material or record layout changes incompatibly.
#: 2: session records carry data_transmissions/reidentifications, which
#: the fig13 energy pricing consumes — serving format-1 session cells
#: would silently mix two pricing models in one figure.
#: 3: the config and scenario key material each lost a field (the decode
#: cadence and the channel model's path-loss exponent).
#: 4: the config key material keeps only the three settable fields; the
#: paper's fixed parameters became constants.
#: 5: the scenario key material's mobility and readers tokens each lost
#: two entries (coherence and arrival window; capture margin and cadence
#: spread), which became constants every deployment shares.
_CACHE_FORMAT = 5

_LEASE_DIR = "leases"
_QUEUE_DIR = "queue"


def _scenario_token(scenario) -> dict:
    """JSON-able identity of a scenario (prefers its own ``cache_token``)."""
    token = getattr(scenario, "cache_token", None)
    if callable(token):
        return token()
    return plain_data(scenario)


def _config_token(config) -> dict:
    """JSON-able identity of a spec's config: every field."""
    return plain_data(config)


#: The encoder of every key's canonical JSON (``json.dumps`` with these
#: settings, built once).
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: Stands in for a cell's own values in a spec's key template; no scenario
#: or config token holds it.
_CELL = "\x00cell\x00"


def _encode_keys(keys) -> str:
    """``_ENCODE(list(keys))`` for a cell's stream keys, without building
    an encoder per call: strings and plain ints are written directly."""
    return "[" + ",".join(
        int.__repr__(k) if type(k) is int else _ENCODE(k) for k in keys
    ) + "]"


def spec_cell_keys(spec: "CampaignSpec") -> Callable[["CampaignCell"], str]:
    """The content-address function of one spec's cells (see
    :func:`cell_cache_key`).

    A key hashes the canonical JSON (sorted keys) of its material: the
    root seed, the exact RNG stream keys the cell derives its randomness
    from (location stream + run stream), the scheme, the scenario, the
    config, and the slot bound — the full closure of
    :func:`repro.engine.campaign.run_cell`. Only the stream keys and the
    scheme differ between the cells of a spec, so the material is encoded
    once with a placeholder in their three places, and each cell's JSON
    is that template with its own values spliced in: the bytes of one
    ``json.dumps`` of the cell's whole material. Nothing is memoised
    across calls: each plan encodes its spec afresh.
    """
    template = _ENCODE(
        {
            "format": _CACHE_FORMAT,
            "root_seed": spec.root_seed,
            "location_keys": _CELL,
            "run_keys": _CELL,
            "scheme": _CELL,
            "scenario": _scenario_token(spec.scenario),
            "config": _config_token(spec.config),
            "max_slots": spec.max_slots,
        }
    )
    head, middle, tail, end = template.split(_ENCODE(_CELL))

    def key(cell: "CampaignCell") -> str:
        canonical = (
            f"{head}{_encode_keys(('location', cell.location))}{middle}"
            f"{_encode_keys(_cell_rng_keys(cell))}{tail}{_ENCODE(cell.scheme)}{end}"
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    return key


def cell_cache_key(spec: "CampaignSpec", cell: "CampaignCell") -> str:
    """Content address of one cell: sha256 over every input it consumes
    (see :func:`spec_cell_keys`, which addresses a whole grid)."""
    return spec_cell_keys(spec)(cell)


class CampaignCache:
    """Directory-backed cache of campaign cell results.

    Parameters
    ----------
    root:
        Cache directory; created on first use. Safe to share between
        campaigns, specs, concurrent processes — and, for the
        ``cache-queue`` backend, between hosts mounting the same path.
    """

    def __init__(self, root) -> None:
        os.makedirs(root, exist_ok=True)
        self.root = Path(root)
        self._root = os.fspath(root)  # load_key joins strings, not Paths

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ---- cell records ---------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Cheap existence probe (one ``stat``, no read/parse).

        The worker's poll sweep runs this over whole grids every
        ``--poll`` seconds; loading and JSON-decoding each completed
        record just to learn it exists would be O(completed) reads per
        sweep. Caveat: a corrupt record exists but loads as a miss, so a
        worker trusting ``contains`` will skip it — repair is the
        coordinator's job (its plan resolves hits with real loads and
        re-executes anything unreadable).
        """
        return self._path(key).exists()

    def load_key(self, key: str) -> Optional["SchemeRun"]:
        """Return the run stored under a cell's content address
        (:func:`cell_cache_key`), or ``None`` on a miss.

        Callers compute the address once at plan time, which keeps the
        work-queue coordinator's poll loop hash-free. The record is read
        as bytes and parsed as UTF-8 JSON; a file that cannot be read or
        decoded, has another format or holds a malformed run is a miss.
        """
        try:
            with open(os.path.join(self._root, key[:2], key + ".json"), "rb") as handle:
                payload = json.loads(handle.read())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("format") != _CACHE_FORMAT:
            return None
        try:
            return SchemeRun.from_dict(payload["run"])
        except (KeyError, TypeError, ValueError):
            return None

    def store_key(self, key: str, run: "SchemeRun") -> None:
        """Persist one cell's run under its content address, atomically
        (temp file + rename)."""
        path = self._path(key)
        payload = {"format": _CACHE_FORMAT, "key": key, "run": run.to_dict()}
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError:  # first record in this shard
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            try:
                os.replace(tmp, path)
            except IsADirectoryError:  # an empty directory squats on the name
                os.rmdir(path)
                os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def keys(self) -> Iterator[str]:
        """Manifest view: the content addresses of every stored cell."""
        for shard in sorted(self.root.glob("??")):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    # ---- leases (the work queue's claim primitive) ----------------------------
    def _lease_path(self, key: str) -> Path:
        return self.root / _LEASE_DIR / f"{key}.lease"

    def _fs_now(self) -> float:
        """Current time *in the cache filesystem's clock domain*.

        Creates a throwaway probe file in the cache root and returns the
        mtime the filesystem stamped on it. Age tests against other files'
        mtimes (leases, job envelopes) must use this as "now": those
        mtimes were stamped by the same filesystem, so the comparison is
        skew-free even when this host's wall clock disagrees with the file
        server's by minutes. Falls back to ``time.time()`` only if the
        probe cannot be created (read-only mount) — a degraded mode that
        merely restores the historical skew-sensitive behaviour.
        """
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".clock")
        except OSError:
            return time.time()
        try:
            return os.fstat(fd).st_mtime
        finally:
            os.close(fd)
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def claim(self, key: str) -> bool:
        """Atomically claim a cell for execution; ``True`` iff we won.

        Exactly one concurrent claimant succeeds (``O_CREAT | O_EXCL``);
        everyone else skips the cell and moves on. The winner must
        eventually :meth:`store_key` the result and :meth:`release` the
        lease — or die and be reaped by :meth:`reap_leases`.
        """
        path = self._lease_path(key)
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            try:
                fd = os.open(path, flags)
            except FileNotFoundError:  # first claim in this cache
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, flags)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                        "claimed_at": time.time(),
                    }
                )
            )
        return True

    def release(self, key: str) -> None:
        """Drop a lease (missing is fine — a reaper may have beaten us)."""
        try:
            os.unlink(self._lease_path(key))
        except OSError:
            pass

    def touch_lease(self, key: str) -> None:
        """Heartbeat a held lease (freshen its mtime).

        The holder calls this periodically while executing the cell so
        :meth:`reap_leases`'s age test keeps treating the lease as live —
        the module-docstring heartbeat contract. Missing is fine: a reaper
        with a shorter timeout than the heartbeat period may already have
        taken it, which costs duplicated work but never correctness.
        """
        try:
            os.utime(self._lease_path(key))
        except OSError:
            pass

    def leases(self) -> List[str]:
        """Keys of every outstanding lease."""
        lease_dir = self.root / _LEASE_DIR
        return sorted(p.stem for p in lease_dir.glob("*.lease"))

    def reap_leases(self, max_age_s: float) -> int:
        """Remove orphaned leases; return how many were reaped.

        A lease is an orphan when its cell record already exists (the
        worker stored the result but died before releasing) or when the
        lease file's mtime is older than ``max_age_s`` (the worker died
        mid-cell). Reaping a live worker's lease is safe for correctness —
        the cell would merely execute twice, and the atomic store makes
        the duplicate a no-op — so a too-small timeout costs work, never
        wrongness. Ages are measured against the cache filesystem's own
        clock (:meth:`_fs_now`), not this host's — a skewed local clock
        must not make fresh leases look expired.
        """
        reaped = 0
        now = self._fs_now()
        for path in (self.root / _LEASE_DIR).glob("*.lease"):
            key = path.stem
            try:
                done = self._path(key).exists()
                stale = (now - path.stat().st_mtime) >= max_age_s
            except OSError:
                continue  # vanished under us — its owner released it
            if done or stale:
                try:
                    os.unlink(path)
                    reaped += 1
                except OSError:
                    pass
        return reaped

    # ---- published jobs (the work queue's discovery medium) -------------------
    def publish_job(self, job_id: str, payload: bytes) -> None:
        """Expose a campaign envelope for workers to discover (atomic)."""
        queue_dir = self.root / _QUEUE_DIR
        queue_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=queue_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, queue_dir / f"{job_id}.job")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load_jobs(self) -> List[Tuple[str, bytes]]:
        """All currently published ``(job_id, payload)`` envelopes."""
        jobs = []
        for path in sorted((self.root / _QUEUE_DIR).glob("*.job")):
            try:
                jobs.append((path.stem, path.read_bytes()))
            except OSError:
                continue  # coordinator finished and removed it mid-scan
        return jobs

    def remove_job(self, job_id: str) -> None:
        """Retract a published envelope (missing is fine)."""
        try:
            os.unlink(self.root / _QUEUE_DIR / f"{job_id}.job")
        except OSError:
            pass

    def touch_job(self, job_id: str) -> None:
        """Heartbeat a published envelope (freshen its mtime).

        Coordinators touch their job while waiting on other parties'
        cells, so :meth:`reap_jobs`'s age test distinguishes a live
        long-running campaign from one whose coordinator was killed.
        """
        try:
            os.utime(self.root / _QUEUE_DIR / f"{job_id}.job")
        except OSError:
            pass

    def reap_jobs(self, max_age_s: float) -> int:
        """Remove job envelopes whose coordinator stopped heartbeating.

        A coordinator removes its envelope on exit (even on error), so a
        stale one means it was killed outright. Orphaned envelopes are
        more than dead weight: every long-lived worker re-plans the dead
        campaign's whole grid on each poll sweep. Returns the number
        removed. Like :meth:`reap_leases`, ages are measured against the
        cache filesystem's own clock, not this host's.
        """
        reaped = 0
        now = self._fs_now()
        for path in (self.root / _QUEUE_DIR).glob("*.job"):
            try:
                stale = (now - path.stat().st_mtime) >= max_age_s
            except OSError:
                continue  # vanished under us — its coordinator finished
            if stale:
                try:
                    os.unlink(path)
                    reaped += 1
                except OSError:
                    pass
        return reaped

    # ---- maintenance ----------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate view for operators: cells/bytes per format, queue state.

        Returns a JSON-able dict::

            {"cells": {"<format>": {"count": n, "bytes": b}, ...},
             "unreadable": n, "total_bytes": b, "leases": n, "jobs": n}

        ``unreadable`` counts corrupt/foreign cell files (always misses at
        load time); ``--gc-format`` removes them along with old formats.
        """
        per_format: Dict[str, Dict[str, int]] = {}
        unreadable = 0
        total_bytes = 0
        for shard in self.root.glob("??"):
            if not shard.is_dir():
                continue
            for path in shard.glob("*.json"):
                try:
                    size = path.stat().st_size
                    payload = json.loads(path.read_text())
                    fmt = payload["format"]
                except (OSError, ValueError, TypeError, KeyError):
                    unreadable += 1
                    continue
                bucket = per_format.setdefault(str(fmt), {"count": 0, "bytes": 0})
                bucket["count"] += 1
                bucket["bytes"] += size
                total_bytes += size
        return {
            "cells": dict(sorted(per_format.items())),
            "unreadable": unreadable,
            "total_bytes": total_bytes,
            "leases": len(self.leases()),
            # count by filename, not load_jobs() — no reason to read every
            # envelope's pickled payload to produce one integer
            "jobs": len(list((self.root / _QUEUE_DIR).glob("*.job"))),
        }

    def gc_format(self) -> int:
        """Drop cells not written by the current ``_CACHE_FORMAT``.

        Pre-format cells are dead weight — every load treats them as
        misses — so this only reclaims disk, never changes results.
        Corrupt/unreadable cell files are removed too. Returns the number
        of files deleted.
        """
        removed = 0
        for shard in self.root.glob("??"):
            if not shard.is_dir():
                continue
            for path in shard.glob("*.json"):
                try:
                    payload = json.loads(path.read_text())
                    keep = (
                        isinstance(payload, dict)
                        and payload.get("format") == _CACHE_FORMAT
                    )
                except (OSError, ValueError):
                    keep = False
                if not keep:
                    try:
                        os.unlink(path)
                        removed += 1
                    except OSError:
                        pass
        return removed
