#!/usr/bin/env python
"""Record the decoder wall-time trajectory to ``BENCH_decoder.json``.

Times one warm-start decode per kernel on the synthetic collision
systems the benchmark gates use (``synthetic_instance`` — D at the
config's clamped data density, L = 1.2·K slots, 8 % warm-start bit
errors), across a sweep of tag-population sizes K. The kernels are the
packed production kernel, driven through the from-scratch reference
front end :func:`repro.core.reference.decode_full_width`, and the scalar
per-position reference; the scalar one is only run at small K (it is
minutes-slow beyond that).

Usage::

    PYTHONPATH=src python benchmarks/record_decoder_bench.py            # full sweep
    PYTHONPATH=src python benchmarks/record_decoder_bench.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/record_decoder_bench.py -o out.json

The artifact is a single JSON object::

    {
      "schema": "bench-decoder/v2",
      "blas_threads": "1",                    # OPENBLAS_NUM_THREADS seen
      "workload": {...},                      # instance parameters
      "kernels": ["packed", "scalar"],        # entries actually recorded
      "series": [
        {"kernel": "packed", "k": 500, "m": 37, "slots": 600,
         "seconds": 0.21, "flips": 2400},
        ...
      ]
    }

``seconds`` is the median of ``--rounds`` timed calls. Each call
derives every operand from scratch (signal matrix, overlap gemm,
pair-scan caps, initial correlations): it times the reference front
end, not the rateless loop, which binds the kernel to its persistent
decoder state in O(1).

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

from test_bench_decoder import synthetic_instance  # noqa: E402

from repro.core.reference import BitFlipDecoder, decode_full_width  # noqa: E402

_MAX_FLIPS = 60
_M = 37  # 32-bit message + CRC-5, the paper's uplink frame

_FULL_SWEEP = (50, 100, 200, 500, 1000, 2000)
_SMOKE_SWEEP = (50, 200, 500, 1000)
_SCALAR_MAX_K = 200  # the per-position python loop is minutes-slow past this


def _scalar_decode(d, h, y, init):
    decoder = BitFlipDecoder(d, h, max_flips=_MAX_FLIPS)
    bits = np.empty_like(init)
    flips = 0
    for pos in range(init.shape[1]):
        out = decoder.decode(y[:, pos], init=init[:, pos])
        bits[:, pos] = out.bits
        flips += out.flips
    return flips


def _packed_decode(d, h, y, init):
    return int(decode_full_width(d, h, y, init, max_flips=_MAX_FLIPS).flips.sum())


_KERNELS = {"scalar": _scalar_decode, "packed": _packed_decode}


def record(ks, rounds):
    series = []
    for k in ks:
        d, h, y, init = synthetic_instance(k=k, m=_M, seed=101)
        for name, run in _KERNELS.items():
            if name == "scalar" and k > _SCALAR_MAX_K:
                continue
            samples = []
            flips = 0
            for _ in range(rounds):
                start = time.perf_counter()
                flips = run(d, h, y, init)
                samples.append(time.perf_counter() - start)
            entry = {
                "kernel": name,
                "k": int(k),
                "m": _M,
                "slots": int(d.shape[0]),
                "seconds": float(np.median(samples)),
                "flips": int(flips),
            }
            series.append(entry)
            print(
                f"K={entry['k']:>5} {name:>8}: {entry['seconds'] * 1e3:9.1f} ms "
                f"({entry['flips']} flips)"
            )
    return {
        "schema": "bench-decoder/v2",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": {
            "m": _M,
            "slots_per_k": 1.2,
            "max_flips": _MAX_FLIPS,
            "noise": 0.05,
            "warm_start_error_rate": 0.08,
            "seed": 101,
            "rounds": rounds,
        },
        "kernels": sorted(_KERNELS),
        "series": series,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweep and a single timed round per point (CI)",
    )
    parser.add_argument("--rounds", type=int, default=3, help="timed rounds per point")
    parser.add_argument(
        "-o", "--output", default=str(Path(__file__).parent.parent / "BENCH_decoder.json"),
        help="output path (default: repo-root BENCH_decoder.json)",
    )
    args = parser.parse_args(argv)
    ks = _SMOKE_SWEEP if args.smoke else _FULL_SWEEP
    rounds = 1 if args.smoke else args.rounds
    payload = record(ks, rounds)
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({len(payload['series'])} points)")


if __name__ == "__main__":
    main()
