#!/usr/bin/env python
"""Record the decoder wall-time trajectory to ``BENCH_decoder.json``.

Two series:

* **Synthetic sweep.** Times one warm-start decode per kernel on the
  synthetic collision systems the benchmark gates use
  (``synthetic_instance`` — D at the config's clamped data density,
  L = 1.2·K slots, 8 % warm-start bit errors), across a sweep of
  tag-population sizes K. The kernels are the packed production kernel,
  driven through the from-scratch reference front end
  :func:`repro.core.reference.decode_full_width`, and the scalar
  per-position reference; the scalar one is only run at small K (it is
  minutes-slow beyond that).
* **Paper scale.** Runs seeded oracle ``buzz`` cells on the ``default``
  scenario at K = 32 and captures the problem of every kernel call
  (:meth:`~repro.core.bp_decoder.PackedBitFlipDecoder.
  decode_best_of_state`) as the rateless reader hands it over: the
  state's arrays and the generator's state. The capture is a private
  patch point of this script — it wraps the kernel class's method for
  the live run and restores it afterwards; the library has no hook for
  it. Each cell's captured calls are then replayed through the kernel
  best of ``replays`` times; ``seconds`` sums, over the cells, the best
  replay's time spent inside the kernel calls (copying each call's
  operands is outside the clock). ``digest`` is a sha256 over every
  call's discrete outcome (bits, flips, converged flags). The recorder
  exits non-zero if a replay's outcomes differ from the live run's, so a
  recorded number always timed the decisions the reader really took.

Usage::

    PYTHONPATH=src python benchmarks/record_decoder_bench.py            # full sweep
    PYTHONPATH=src python benchmarks/record_decoder_bench.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/record_decoder_bench.py -o out.json

The artifact is a single JSON object::

    {
      "schema": "bench-decoder/v3",
      "blas_threads": "1",                    # OPENBLAS_NUM_THREADS seen
      "workload": {...},                      # instance parameters
      "kernels": ["packed", "scalar"],        # entries actually recorded
      "series": [
        {"kernel": "packed", "k": 500, "m": 37, "slots": 600,
         "seconds": 0.21, "flips": 2400},
        ...
      ],
      "paper": {"scheme": "buzz", "scenario": "default", "k": 32,
                "roots": [1, ...], "replays": 5, "calls": 430,
                "seconds": 0.42, "digest": "..."}
    }

In ``series``, ``seconds`` is the median of ``--rounds`` timed calls.
Each call derives every operand from scratch (signal matrix, overlap
gemm, pair-scan caps, initial correlations): it times the reference
front end, not the rateless loop, which binds the kernel to its
persistent decoder state in O(1). ``paper`` times the kernel as the
rateless loop calls it.

BLAS runs on one thread, as under ``python -m repro``, unless the
environment sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``; ``blas_threads`` records the value the run saw.
"""

import argparse
import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# Before numpy is first imported: its BLAS reads these once.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from test_bench_decoder import synthetic_instance  # noqa: E402

from repro.core.bp_decoder import resolve_kernel  # noqa: E402
from repro.core.reference import BitFlipDecoder, decode_full_width  # noqa: E402
from repro.engine.campaign import CampaignSpec, run_campaign  # noqa: E402
from repro.network.scenarios import scenario_by_name  # noqa: E402

_MAX_FLIPS = 60
_M = 37  # 32-bit message + CRC-5, the paper's uplink frame

_FULL_SWEEP = (50, 100, 200, 500, 1000, 2000)
_SMOKE_SWEEP = (50, 200, 500, 1000)
_SCALAR_MAX_K = 200  # the per-position python loop is minutes-slow past this

_PAPER_K = 32
_PAPER_ROOTS = tuple(range(1, 9))  # one oracle ``buzz`` cell per root seed
_PAPER_SMOKE_ROOTS = (1, 2)
_PAPER_REPLAYS = 5
#: The state arrays the kernel only reads, captured once per call ...
_STATIC_FIELDS = ("h", "d", "weights", "hr", "hi", "abs_h2", "overlap", "cross_mag",
                  "y", "active_idx")
#: ... and the ones it decodes in place, copied afresh for every replay.
_WARM_FIELDS = ("bits", "residual", "corr_re", "corr_im")


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


def _outcome_digest(outcome) -> bytes:
    """sha256 of one kernel call's discrete outcome: bits, flips, converged."""
    digest = hashlib.sha256()
    bits = np.ascontiguousarray(outcome.bits, dtype=np.uint8)
    digest.update(repr(bits.shape).encode())
    digest.update(bits.tobytes())
    digest.update(np.ascontiguousarray(outcome.flips, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(outcome.converged, dtype=bool).tobytes())
    return digest.digest()


def _capture_cell(root):
    """Run one seeded oracle ``buzz`` cell at K = 32 and return every kernel
    call as ``(static, warm, max_flips, restarts, rng, outcome digest)``.

    The patch point: the kernel class's ``decode_best_of_state`` is
    wrapped for the run, copying the bound state's operands and the
    generator before each call and digesting the outcome after it.
    """
    kernel = resolve_kernel()
    original = kernel.decode_best_of_state
    calls = []

    def capturing(self, restarts, rng):
        state = self._state
        static = SimpleNamespace(k_full=state.k_full)
        for name in _STATIC_FIELDS:
            setattr(static, name, np.array(getattr(state, name)))
        warm = {name: np.array(getattr(state, name)) for name in _WARM_FIELDS}
        before = copy.deepcopy(rng)
        outcome = original(self, restarts, rng)
        calls.append((static, warm, self.max_flips, restarts, before, _outcome_digest(outcome)))
        return outcome

    kernel.decode_best_of_state = capturing
    try:
        run_campaign(CampaignSpec(
            scenario=scenario_by_name("default", _PAPER_K),
            root_seed=root,
            n_locations=1,
            n_traces=1,
            schemes=("buzz",),
        ))
    finally:
        kernel.decode_best_of_state = original
    return calls


def _replay(calls):
    """Seconds inside the kernel for one replay of ``calls``, and whether
    every outcome matched the live run's."""
    kernel = resolve_kernel()
    seconds = 0.0
    same = True
    for static, warm, max_flips, restarts, rng, want in calls:
        state = SimpleNamespace(**vars(static), **{k: v.copy() for k, v in warm.items()})
        rng = copy.deepcopy(rng)
        start = time.perf_counter()
        outcome = kernel.from_state(state, max_flips=max_flips).decode_best_of_state(
            restarts, rng
        )
        seconds += time.perf_counter() - start
        same &= _outcome_digest(outcome) == want
    return seconds, same


def record_paper(roots, replays):
    """The paper-scale series: capture each cell, replay it best of
    ``replays``. Raises ``SystemExit`` if a replay's outcomes differ from
    the live run's."""
    seconds = 0.0
    n_calls = 0
    digest = hashlib.sha256()
    for root in roots:
        calls = _capture_cell(root)
        best = float("inf")
        for _ in range(replays):
            took, same = _replay(calls)
            if not same:
                raise SystemExit(f"paper cell root {root}: replayed outcomes differ from the live run")
            best = min(best, took)
        seconds += best
        n_calls += len(calls)
        for call in calls:
            digest.update(call[-1])
        print(f"paper cell root {root:>3}: {len(calls):>3} kernel calls, {best * 1e3:7.1f} ms")
    print(f"paper K={_PAPER_K}: {n_calls} kernel calls, {seconds * 1e3:.1f} ms (best of {replays})")
    return {
        "scheme": "buzz",
        "scenario": "default",
        "k": _PAPER_K,
        "roots": list(roots),
        "replays": replays,
        "calls": n_calls,
        "seconds": seconds,
        "digest": digest.hexdigest(),
    }


def record(ks, rounds, paper_roots, replays):
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
        "schema": "bench-decoder/v3",
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
        "paper": record_paper(paper_roots, replays),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweep, two paper cells and a single timed round per point (CI)",
    )
    parser.add_argument("--rounds", type=int, default=3, help="timed rounds per point")
    parser.add_argument(
        "-o", "--output", default=str(Path(__file__).parent.parent / "BENCH_decoder.json"),
        help="output path (default: repo-root BENCH_decoder.json)",
    )
    args = parser.parse_args(argv)
    ks = _SMOKE_SWEEP if args.smoke else _FULL_SWEEP
    rounds = 1 if args.smoke else args.rounds
    paper_roots = _PAPER_SMOKE_ROOTS if args.smoke else _PAPER_ROOTS
    replays = 1 if args.smoke else _PAPER_REPLAYS
    payload = record(ks, rounds, paper_roots, replays)
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({len(payload['series'])} points)")


if __name__ == "__main__":
    main()
