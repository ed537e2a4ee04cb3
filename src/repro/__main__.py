"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro                          # run every experiment (full size)
    python -m repro fig10 fig14              # run a subset
    python -m repro --quick                  # reduced trial counts (~2 minutes)
    python -m repro fig10 --jobs 8           # campaign grid on 8 processes
    python -m repro fig11 --schemes buzz,tdma
    python -m repro fig11 --schemes silenced # the §8.2 ACK-silencing variant
    python -m repro fig10 --scenario cart    # any figure on any location class
    python -m repro fig10 --cache-dir .buzz-cache   # re-runs load cached cells
    python -m repro fig10 --backend cache-queue --cache-dir /shared/cache
    python -m repro fig10 --progress         # stream per-cell progress (stderr)
    python -m repro --quick --out results/   # also write each report to a file

    python -m repro worker --cache-dir /shared/cache   # join running campaigns
    python -m repro cache --cache-dir .buzz-cache --stats   # cache maintenance

``--jobs``, ``--cache-dir``, ``--backend`` and ``--progress`` apply to
every campaign-backed experiment (fig10–fig13, fig15–fig17 and headline);
``--schemes`` and ``--scenario`` to the per-scheme figures (fig10, fig11,
fig13, fig15 — fig12's band sweep, fig16's mobility grid and headline's
composition fix their own scenarios). fig15 sweeps the end-to-end session
schemes (``buzz-e2e``, ``silenced-e2e``, ``gen2-tdma-e2e``) against the
oracle ``buzz``; fig16 sweeps drift × churn mobility, static ``buzz-e2e``
vs ``buzz-adaptive`` (mid-session re-identification) vs the oracle; fig17
sweeps reader density × collision mode through the event-driven
multi-reader simulator (``multi-reader-*`` schemes, ``two-portal`` /
``dense-floor`` / ``handoff`` scenarios).
Experiments a flag does not apply to ignore it with a note. Every backend
is bit-identical to serial for the same seed, and a second run against the
same ``--cache-dir`` executes zero new campaign cells.

**Distributed runs.** ``--backend cache-queue`` coordinates a campaign
through the shared ``--cache-dir``: the coordinating process publishes the
work and claims cells like any worker, while ``python -m repro worker
--cache-dir DIR`` processes — second terminals, second hosts mounting the
same path — join in, claiming cells via atomic lease files. The merged
result is bit-identical to a serial run. The ``cache`` subcommand reports
cell counts/bytes per format (``--stats``), reaps stale leases left by
killed workers (``--prune-leases``), and drops cells from superseded
cache formats (``--gc-format``).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread per process, set before anything imports numpy: campaign
# parallelism belongs to the process pool and the cache-queue, and threaded
# BLAS makes the decode kernel several times slower on these small (L, K)
# matrices. Pool children inherit the setting; a value the user set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from repro.engine.registry import available_schemes
from repro.network.scenarios import SCENARIO_NAMES

#: The built-in backend names of :data:`repro.engine.backends.BACKENDS`,
#: for the parser: that module loads only when a campaign runs.
_BACKENDS = ("serial", "process-pool", "cache-queue")

#: name → (module under ``repro.experiments``, full-size kwargs, --quick
#: kwargs). Only the experiments a run names are imported. A CLI override
#: applies to an experiment exactly when its ``run`` takes a parameter of
#: that name.
_EXPERIMENTS = {
    "toy": ("toy_example", {}, {}),
    "fig2": ("fig2_waveforms", {}, {}),
    "fig3": ("fig3_constellation", {}, {"n_symbols": 500}),
    "fig7": ("fig7_sync_offset", {}, {"trials": 20}),
    "fig8": ("fig8_clock_drift", {}, {}),
    "fig9": ("fig9_decoding_progress", {}, {}),
    "fig10": ("fig10_transfer_time", {}, {"n_locations": 3, "n_traces": 1}),
    "fig11": ("fig11_message_errors", {}, {"n_locations": 3, "n_traces": 1}),
    "fig12": ("fig12_challenging", {}, {"n_locations": 3, "n_traces": 1}),
    "fig13": ("fig13_energy", {}, {"n_locations": 3, "n_traces": 1}),
    "fig14": ("fig14_identification", {}, {"n_locations": 4}),
    "fig15": (
        "fig15_end_to_end",
        {},
        # Smoke mode: tiny K, two location seeds, one trace — the CI leg
        # that keeps the end-to-end path exercised on every push.
        {"tag_counts": (2, 4), "n_locations": 2, "n_traces": 1},
    ),
    "fig16": (
        "fig16_mobility",
        {},
        # Smoke mode: one nonzero drift point, tiny grid — the CI leg that
        # keeps the mobile session path exercised on every push.
        {
            "n_tags": 10,
            "drift_rates": (0.0, 12.0),
            "churn_rates": (0.0,),
            "n_locations": 2,
            "n_traces": 1,
        },
    ),
    "fig17": (
        "fig17_reader_density",
        {},
        # Smoke mode: tiny K, single vs pair of readers — the CI leg that
        # keeps the multi-reader simulator exercised on every push.
        {"n_tags": 8, "reader_counts": (1, 2), "n_locations": 2, "n_traces": 1},
    ),
    "headline": ("headline", {}, {"n_locations": 3, "n_traces": 1}),
}


def _parse_schemes(value: str):
    schemes = tuple(s.strip() for s in value.split(",") if s.strip())
    if not schemes:
        raise argparse.ArgumentTypeError("need at least one scheme")
    known = available_schemes()
    for s in schemes:
        if s not in known:
            raise argparse.ArgumentTypeError(
                f"unknown scheme {s!r}; registered: {', '.join(known)}"
            )
    return schemes


class _CellProgress:
    """``on_cell`` streaming reporter: one updating line per campaign cell.

    Keeps only per-scheme counters (first-appearance order, like
    :meth:`~repro.engine.CampaignResult.schemes_present`) — holding the
    runs themselves would retain every record in memory for the length
    of the campaign just to print a status line.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.hits = 0
        self._counts = {}
        self._line_len = 0

    @property
    def n_cells(self) -> int:
        return sum(self._counts.values())

    def __call__(self, cell, run, cached) -> None:
        if cached:
            self.hits += 1
        self._counts[run.scheme] = self._counts.get(run.scheme, 0) + 1
        counts = ", ".join(
            f"{name}×{count}" for name, count in self._counts.items()
        )
        self._overwrite(
            f"  cells {self.n_cells} done ({counts}; {self.hits} from cache)"
        )

    def _overwrite(self, line: str, end: str = "") -> None:
        """Rewrite the progress line, blanking any leftover of a longer one."""
        pad = " " * max(0, self._line_len - len(line))
        print(f"\r{line}{pad}", end=end, file=self.stream, flush=True)
        self._line_len = len(line)

    def finish(self) -> None:
        if self._counts:
            self._overwrite(
                f"  {self.n_cells} cells done across "
                f"{', '.join(self._counts)} ({self.hits} from cache)",
                end="\n",
            )
        self.hits = 0
        self._counts = {}
        self._line_len = 0


def _worker_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Join campaigns published in a shared cache directory: "
        "claim pending cells via atomic leases, execute, store. Run any "
        "number of these — second terminals or other hosts mounting the "
        "same path — against a campaign started with --backend cache-queue.",
    )
    parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="shared campaign cache (the coordinator's --cache-dir)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="seconds between scans for claimable work (default 0.5)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=0.0, metavar="S",
        help="exit after this long with nothing claimable (default 0: "
        "drain what is queued now, then exit)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after executing N cells (default: unbounded)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="S",
        help="refresh a claimed lease's mtime every S seconds while its "
        "cell executes, so reapers with shorter timeouts than one cell's "
        "runtime never re-issue live work (default 15; 0 disables)",
    )
    args = parser.parse_args(argv)
    if args.poll <= 0:
        parser.error("--poll must be > 0")
    if args.idle_timeout < 0:
        parser.error("--idle-timeout must be >= 0")
    if args.max_cells is not None and args.max_cells < 1:
        parser.error("--max-cells must be >= 1")
    if args.heartbeat is not None and args.heartbeat < 0:
        parser.error("--heartbeat must be >= 0")
    from repro.engine.queue import DEFAULT_HEARTBEAT_S, run_worker

    executed = run_worker(
        args.cache_dir,
        poll_interval=args.poll,
        idle_timeout=args.idle_timeout,
        max_cells=args.max_cells,
        echo=print,
        heartbeat_s=DEFAULT_HEARTBEAT_S if args.heartbeat is None else args.heartbeat,
    )
    print(f"[worker] done: {executed} cell(s) executed")
    return 0


def _cache_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Maintain a campaign cell cache: report its contents, "
        "reap stale leases left by killed workers, drop cells written by "
        "superseded cache formats.",
    )
    parser.add_argument(
        "--cache-dir", required=True, metavar="DIR", help="cache directory"
    )
    actions = parser.add_mutually_exclusive_group()
    actions.add_argument(
        "--stats", action="store_true",
        help="report cell counts/bytes per format, leases and queued jobs "
        "(the default action)",
    )
    actions.add_argument(
        "--prune-leases", action="store_true",
        help="remove leases older than --max-age or whose cell is complete",
    )
    actions.add_argument(
        "--prune-jobs", action="store_true",
        help="remove queued campaign envelopes older than --max-age "
        "(a live coordinator heartbeats its envelope; a stale one means "
        "the coordinator was killed)",
    )
    actions.add_argument(
        "--gc-format", action="store_true",
        help="delete cells not written by the current cache format "
        "(always misses at load time) and unreadable cell files",
    )
    parser.add_argument(
        "--max-age", type=float, default=3600.0, metavar="S",
        help="staleness threshold for --prune-leases/--prune-jobs "
        "(default 3600)",
    )
    args = parser.parse_args(argv)
    if args.max_age < 0:
        parser.error("--max-age must be >= 0")
    from repro.engine.cache import CampaignCache

    cache = CampaignCache(args.cache_dir)
    if args.prune_leases:
        print(f"pruned {cache.reap_leases(args.max_age)} lease(s)")
    elif args.prune_jobs:
        print(f"pruned {cache.reap_jobs(args.max_age)} job envelope(s)")
    elif args.gc_format:
        print(f"removed {cache.gc_format()} stale-format cell file(s)")
    else:
        print(json.dumps(cache.stats(), indent=2))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The worker/cache subcommands have their own flag sets and never run
    # experiments; dispatch before the figure parser sees (and rejects) them.
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Buzz paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*_EXPERIMENTS, []],
        help="subset to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced trial counts for a fast pass"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="campaign worker processes (1 = serial; results are bit-identical)",
    )
    parser.add_argument(
        "--schemes",
        type=_parse_schemes,
        default=None,
        metavar="A,B",
        help="comma-separated scheme subset for campaign figures "
        f"(registered: {', '.join(available_schemes())})",
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIO_NAMES,
        default=None,
        help="location class override for campaign figures",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="campaign result cache: cells already computed for the same "
        "spec load from JSON instead of executing (created if missing)",
    )
    parser.add_argument(
        "--backend",
        choices=_BACKENDS,
        default=None,
        help="campaign executor backend (default: serial, or process-pool "
        "when --jobs > 1); cache-queue coordinates through --cache-dir so "
        "`python -m repro worker` processes can join",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-cell campaign progress to stderr as cells finish",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write each experiment's rendered report to DIR/<name>.txt",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.backend is not None and args.cache_dir is None:
        from repro.engine.backends import resolve_backend

        # requires_cache is the backend's own declaration — the backend,
        # not this parser, knows whether it coordinates through a cache.
        if resolve_backend(args.backend).requires_cache:
            parser.error(f"--backend {args.backend} requires --cache-dir")
    if args.backend not in (None, "process-pool") and args.jobs != 1:
        # Only the process pool is sized by --jobs.
        print(f"(note: --jobs ignored by --backend {args.backend})")

    progress = _CellProgress() if args.progress else None
    overrides = {}
    if args.jobs != 1:
        overrides["jobs"] = args.jobs
    if args.schemes is not None:
        overrides["schemes"] = args.schemes
    if args.scenario is not None:
        overrides["scenario"] = args.scenario
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    if args.backend is not None:
        overrides["backend"] = args.backend
    if progress is not None:
        overrides["on_cell"] = progress

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    names = args.experiments or list(_EXPERIMENTS)
    for name in names:
        module_name, full_kwargs, quick_kwargs = _EXPERIMENTS[name]
        module = importlib.import_module(f"repro.experiments.{module_name}")
        kwargs = dict(quick_kwargs if args.quick else full_kwargs)
        supported = inspect.signature(module.run).parameters
        applied = {k: v for k, v in overrides.items() if k in supported}
        ignored = sorted(set(overrides) - set(applied))
        kwargs.update(applied)
        start = time.time()
        print(f"===== {name} =====")
        if ignored:
            flags = ", ".join(
                "--progress" if n == "on_cell" else "--" + n.replace("_", "-")
                for n in ignored
            )
            print(f"(note: {flags} not applicable to {name})")
        report = module.render(module.run(**kwargs))
        if progress is not None:
            progress.finish()
        print(report)
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(report + "\n")
        print(f"[{time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
