#!/usr/bin/env python
"""Record session wall times to ``BENCH_session.json``.

Times one full seeded :func:`run_rateless_uplink` session per
tag-population size K, both ways — ``rebuild`` (the
:class:`~repro.core.reference.RebuildRatelessDecoder` reference, patched
in as the session loop's decoder class: every decode call re-stacks the (L, K)
problem and re-derives its gemms) and ``incremental`` (the production
decoder's persistent :class:`~repro.core.decoder_state.DecoderState`:
rank-(new rows) extension per slot, frozen-column peeling per verify
pass). Every pair
of runs is also checked byte-identical — a speedup over a diverging
session would be meaningless.

Two series are recorded. The ``bp_restarts=0`` sweep (K = 16 … 500)
isolates the rebuild-vs-incremental setup cost the tier-1 gate checks.
The ``bp_restarts=4`` points (the default decoder config, K = 8, 16, 32)
time what a user waits on at the paper's scale.

The workload is the shared one from ``benchmarks/test_bench_session.py``
(SNR-band channels, 2·K slots), so the committed artifact and the CI
gate measure the same sessions.

Usage::

    PYTHONPATH=src python benchmarks/record_session_bench.py          # full sweep
    PYTHONPATH=src python benchmarks/record_session_bench.py --smoke  # CI smoke
    PYTHONPATH=src python benchmarks/record_session_bench.py -o out.json

The artifact is a single JSON object::

    {
      "schema": "bench-session/v3",
      "blas_threads": "1",              # OPENBLAS_NUM_THREADS seen
      "workload": {...},                # shared session parameters
      "series": [
        {"k": 500, "bp_restarts": 0, "slots": 1000, "decoded": 496,
         "rebuild_seconds": 412.0, "incremental_seconds": 58.3,
         "speedup": 7.07, "identical": true},
        ...
      ]
    }

``*_seconds`` is the median of ``--rounds`` timed sessions (decoder and
state construction included — they are part of the honest session cost).

BLAS runs on one thread, as under ``python -m repro``, unless the
environment sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``; ``blas_threads`` records the value the run saw.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Before numpy is first imported: its BLAS reads these once.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from test_bench_session import (  # noqa: E402
    BP_RESTARTS,
    NOISE_STD,
    SEED,
    SLOTS_PER_K,
    SNR_BAND_DB,
    identical,
    run_session,
    session_workload,
)

#: ``(bp_restarts, Ks)`` per series. K = 64 under the default config waits
#: for the verify-rule fix: until then those sessions end at the abort.
_DEFAULT_RESTARTS = 4
_FULL_SWEEP = ((BP_RESTARTS, (16, 32, 50, 100, 200, 500)), (_DEFAULT_RESTARTS, (8, 16, 32)))
_SMOKE_SWEEP = ((BP_RESTARTS, (50, 120)), (_DEFAULT_RESTARTS, (16,)))


def record(ks, rounds, bp_restarts=BP_RESTARTS):
    """One series entry per K, each session run ``bp_restarts`` restarts."""
    series = []
    for k in ks:
        pop, fe = session_workload(k)
        results = {}
        times = {}
        for mode, rebuild in (("rebuild", True), ("incremental", False)):
            samples = []
            for _ in range(rounds):
                result, elapsed = run_session(
                    pop, fe, k, rebuild=rebuild, bp_restarts=bp_restarts
                )
                samples.append(elapsed)
            results[mode] = result
            times[mode] = float(np.median(samples))
        same = identical(results["incremental"], results["rebuild"])
        entry = {
            "k": int(k),
            "bp_restarts": int(bp_restarts),
            "slots": int(results["incremental"].slots_used),
            "decoded": int(results["incremental"].n_decoded),
            "rebuild_seconds": times["rebuild"],
            "incremental_seconds": times["incremental"],
            "speedup": times["rebuild"] / times["incremental"],
            "identical": bool(same),
        }
        series.append(entry)
        print(
            f"K={entry['k']:>4} restarts={bp_restarts}: rebuild {entry['rebuild_seconds']:8.2f}s  "
            f"incremental {entry['incremental_seconds']:8.2f}s  "
            f"({entry['speedup']:.2f}x)  decoded {entry['decoded']}/{k}  "
            f"identical={entry['identical']}",
            flush=True,
        )
    return series


def record_all(sweep, rounds):
    """The artifact: every ``(bp_restarts, Ks)`` series of ``sweep``."""
    return {
        "schema": "bench-session/v3",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": {
            "snr_band_db": list(SNR_BAND_DB),
            "noise_std": NOISE_STD,
            "slots_per_k": SLOTS_PER_K,
            "message_bits": 32,
            "seed": SEED,
            "rounds": rounds,
        },
        "series": [
            entry for restarts, ks in sweep for entry in record(ks, rounds, restarts)
        ],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweep and a single timed round per point (CI)",
    )
    parser.add_argument("--rounds", type=int, default=1, help="timed rounds per point")
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).parent.parent / "BENCH_session.json"),
        help="output path (default: repo-root BENCH_session.json)",
    )
    args = parser.parse_args(argv)
    sweep = _SMOKE_SWEEP if args.smoke else _FULL_SWEEP
    payload = record_all(sweep, 1 if args.smoke else args.rounds)
    failures = [(e["k"], e["bp_restarts"]) for e in payload["series"] if not e["identical"]]
    if failures:
        raise SystemExit(f"incremental diverged from rebuild at (K, restarts)={failures}")
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({len(payload['series'])} points)")


if __name__ == "__main__":
    main()
