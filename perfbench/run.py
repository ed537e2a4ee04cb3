"""The repository's benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload paper-decode --seed 1 --seconds 21 --trace 0

``--trace 0`` times rounds of the workload's sweep untraced and prints
the end-to-end metrics; ``--trace 1`` runs every spec of the sweep both
untraced and traced, and prints the per-layer metrics. Either way the run first replays the
pinned reference cells (``reference.json``, default seed) and counts
every cell whose record differs, or that raises, as failed. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--write-reference`` re-pins the reference digests (only after a change
that is meant to alter outputs). See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("paper-decode", "sessions")
SETUP_PER_GAP = 2  #: set-up probes before the load and after every round
SCIPY_SAMPLES = 3

#: Set-up probe: a fresh interpreter imports the CLI and builds the specs.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import repro.__main__
import workloads
workloads.build_specs(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""

_SCIPY_PROBE = """
import time
import numpy
t0 = time.perf_counter()
import scipy.optimize
print(time.perf_counter() - t0)
"""


def _probe(code: str, *args: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


#: Environment of every benchmark process: single-threaded BLAS (the
#: closed loop is one process, and a fixed thread count keeps float
#: summation order, so output digests, the same on any machine) and no
#: decoder-selection overrides.
_ENV_SET = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_ENV_UNSET = ("REPRO_DECODER_KERNEL", "REPRO_DECODER_STATE")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digests(load, short: bool = False) -> dict:
    cells = load.record_digests()
    return {
        "cells": [d[:16] for d in cells] if short else cells,
        "campaigns": [load.digests[i] for i in sorted(load.digests)],
    }


def _compare(load, digests: dict, pinned: dict, what: str) -> None:
    """Count cells whose digest differs from ``pinned`` as failed."""
    n = len(pinned["cells"][0]) if pinned["cells"] else 64
    cells = [d[:n] for d in digests["cells"]]
    bad = [i for i, d in enumerate(pinned["cells"]) if i >= len(cells) or cells[i] != d]
    if bad or len(cells) != len(pinned["cells"]):
        load.fail(max(len(bad), 1), f"{what} cells differ from the pin at {bad[:10]}")
    elif digests["campaigns"] != pinned["campaigns"]:
        load.fail(load.attempted, f"{what} CampaignResult.to_json() differs from the pin")


def _check_reference(workload, workdir: Path, write: bool):
    """Replay the pinned reference cells (or pin them, with the default
    seed's whole sweep); return the replay's load, with any mismatch
    counted as failed, and its digests."""
    from workloads import DEFAULT_SEED, Load

    load = Load()
    workload.run_round(workload.reference_specs(), load, workdir)
    digests = _digests(load)
    pins = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if write:
        full = Load()
        workload.run_round(workload.specs(DEFAULT_SEED), full, workdir)
        pins[workload.name] = {"reference": digests, "load": _digests(full, short=True)}
        REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    elif workload.name not in pins:
        load.fail(load.attempted, "no pinned reference for this workload")
    else:
        _compare(load, digests, pins[workload.name]["reference"], "reference")
    return load, digests


def _check_load(workload, load, seed: int) -> None:
    """With the default seed the whole load is pinned: compare it."""
    from workloads import DEFAULT_SEED

    pins = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if seed == DEFAULT_SEED and workload.name in pins:
        _compare(load, _digests(load), pins[workload.name]["load"], "load")


def _hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a beta-weighted mean of
    all order statistics. Unlike a single order statistic it does not jump
    when a quantile falls in a sparse stretch of the sample, as the median
    of the three-scheme ``sessions`` mix does."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(load, setup_s, rss_mb) -> dict:
    cells = load.cell_s
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "cells_per_s": (len(cells) / sum(cells), "1/s"),
        "cell_p50_ms": (_hd_quantile(cells, 0.5) * 1e3, "ms"),
        "cell_p90_ms": (_hd_quantile(cells, 0.9) * 1e3, "ms"),
        "cached_cells_per_s": (load.cached_cells_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, load, untraced_s, scipy_s) -> dict:
    summary = tracer.summary()
    spans, counters = summary["spans"], tracer.counters

    def calls(name):
        return spans[name]["calls"]

    def ratio(count, name):
        return counters[count] / calls(name) if calls(name) else 0.0

    metrics = {}
    for name in (
        "bp_decoder.pair_scan", "bp_decoder.flip_rounds", "rateless.try_decode",
        "rateless.verify.constellation", "coding.crc.check",
        "decoder_state.append_slot", "decoder_state.peel", "coding.prng.d_regen",
        "phy.observe_block", "identification.identify", "sensing.basis_pursuit",
        "mobile.segment", "sim.interference.resolve_slot", "engine.cache.claim",
        "engine.cache.load_key", "engine.cache.store_key", "engine.cache.release",
    ):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    for name in (
        "sensing.recover_sparse", "kestimate.estimate_k", "sim.simulate",
        "engine.plan", "engine.queue.claim_and_execute", "engine.run_cell",
        "engine.campaign", "engine.session.run", "rateless.uplink",
        "baselines.tdma", "baselines.cdma",
    ):
        metrics[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    metrics["bp_decoder.pair_scan.useful_ratio"] = (
        ratio("bp_decoder.pair_scan.useful", "bp_decoder.pair_scan"), "ratio")
    metrics["rateless.try_decode.fruitless_ratio"] = (
        ratio("rateless.try_decode.fruitless", "rateless.try_decode"), "ratio")
    metrics["engine.cache.claim.lost"] = (counters["engine.cache.claim.lost"], "count")
    metrics["engine.cache.load_key.hit_ratio"] = (
        ratio("engine.cache.load_key.hits", "engine.cache.load_key"), "ratio")
    metrics["sim.scheduler.events"] = (counters["sim.scheduler.events"], "count")
    metrics["session.reidentifications"] = (
        sum(run.reidentifications or 0 for _, _, run in load.records), "count")
    for layer, share in summary["layers"].items():
        metrics[f"layer.{layer}.share"] = (share, "ratio")
    metrics["trace.cells"] = (tracer.cell, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.traced_s"] = (tracer.wall_s, "s")
    metrics["trace.overhead_s"] = (tracer.wall_s - untraced_s, "s")
    metrics["setup.scipy_optimize_import_s"] = (statistics.median(scipy_s), "s")
    return metrics


def traced_load(workload, seed: int, seconds: float, workdir: Path):
    """Run rounds of the sweep, each spec once untraced and once traced;
    which of the two goes first alternates, so neither side always runs
    on warmed caches. A round runs the sweep twice, so a load of
    ``seconds`` runs as many rounds as an untraced load of half that:
    the count follows from ``seconds`` alone, and calls and self times
    are totals over the same rounds however fast the code runs."""
    from tracing import Tracer
    from workloads import Load

    specs = workload.specs(seed)
    tracer, untraced, traced = Tracer(), Load(), Load()
    for _ in range(workload.rounds(seconds / 2)):
        plain, spanned = [], []
        for index, spec in enumerate(specs):
            first = (index + traced.rounds) % 2
            for with_trace in (first == 1, first == 0):
                if with_trace:
                    with tracer:
                        spanned.append(workload.run_spec(spec, traced, index, workdir,
                                                         tracer, probe=False))
                else:
                    plain.append(workload.run_spec(spec, untraced, index, workdir,
                                                   probe=False))
        untraced.add_round(specs, plain)
        traced.add_round(specs, spanned)
    return tracer, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned reference seed, 1)")
    parser.add_argument("--seconds", type=float, default=21.0,
                        help="nominal length of the timed load; it sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="re-pin reference.json from this code and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(_ENV_SET)
    for name in _ENV_UNSET:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, REFERENCE_PROBE_S, WORKLOADS, host_probe, host_scale

    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.write_reference:
            _check_reference(workload, workdir, write=True)
            print(f"pinned {workload.name} reference in {REFERENCE}")
            return 0
        reference, ref_digests = _check_reference(workload, workdir, write=False)
        if args.trace == 0:
            setup_s = []

            def probe_setup():
                before = host_probe()
                for _ in range(SETUP_PER_GAP):
                    t = _probe(_SETUP_PROBE, str(SRC), str(HERE), workload.name, str(seed))
                    after = host_probe()
                    setup_s.append(t * host_scale(before, after))
                    before = after

            base_mb = _peak_rss_mb()  # imports and the reference cells
            load = workload.run_load(seed, args.seconds, workdir, between=probe_setup)
            rss_mb = _peak_rss_mb()  # the probes are child processes: not counted
        else:
            tracer, untraced, load = traced_load(workload, seed, args.seconds, workdir)
            tracer.write(WORKDIR / "traces" / f"{args.workload}-seed{seed}.jsonl.gz")
            scipy_s = [_probe(_SCIPY_PROBE) for _ in range(SCIPY_SAMPLES)]
            load.attempted += untraced.attempted
            load.failed += untraced.failed
            load.problems += untraced.problems
            if untraced.record_digests() != load.record_digests():
                load.fail(len(load.records), "traced records differ from untraced")
        _check_load(workload, load, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = reference.attempted + load.attempted
    failed = reference.failed + load.failed
    for problem in reference.problems + load.problems:
        print(f"FAILED {problem}")
    if not load.cell_s:
        print("perfbench: no cell of the load completed", file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics = end_to_end(load, setup_s, rss_mb)
    else:
        metrics = per_layer(tracer, load, untraced.wall_s, scipy_s)
    load_digest = hashlib.sha256("\n".join(load.record_digests()).encode()).hexdigest()
    print(f"workload {workload.name} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"reference campaigns {' '.join(d[:16] for d in ref_digests['campaigns'])}")
    print(f"load digest {load_digest[:16]} over {len(load.records)} cells, {load.rounds} rounds")
    print(f"failed_frac {failed / max(attempted, 1):.6f} ({failed} of {attempted} cells)")
    if args.trace == 0:
        print(f"peak rss before the load {base_mb:.1f} MB, load adds {rss_mb - base_mb:.1f} MB")
        probe_ms = statistics.median(load.probe_s) * 1e3
        print(f"host probe median {probe_ms:.2f} ms over {len(load.probe_s)} probes; "
              f"times are scaled to {REFERENCE_PROBE_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
