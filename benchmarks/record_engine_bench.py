#!/usr/bin/env python
"""Record campaign-engine warm-pass timings to ``BENCH_engine.json``.

A warm pass re-runs a campaign whose cells are all in the cell cache:
it plans the spec (serialises the key material, hashes one key per cell)
and loads every record, executing nothing. This records what that costs:

* ``warm_campaign`` — µs per warm one-cell ``run_campaign`` (cache
  directory opened, spec planned, record loaded, result assembled), on
  ``default`` K = 32 ``buzz`` and ``dense-floor`` K = 12 ``multi-reader``;
* ``plan`` — µs per cell to plan a 10 × 5 × 3 ``default`` grid with no
  cache (key material once, one key per cell);
* ``load_key`` — µs per ``CampaignCache.load_key`` of one stored record.

Every figure is the best of ``repeat`` timed batches of ``number`` calls,
in microseconds. The warm result must equal the cold one, or the recorder
exits non-zero. ``host_probe_s`` holds the calibration kernel of
``perfbench/workloads.py`` timed before and after the run, so figures
from hosts of different speed can be compared. There is no timing gate.

Usage::

    PYTHONPATH=src python benchmarks/record_engine_bench.py          # full
    PYTHONPATH=src python benchmarks/record_engine_bench.py --smoke  # CI smoke
    PYTHONPATH=src python benchmarks/record_engine_bench.py -o out.json

The artifact is a single JSON object::

    {
      "schema": "bench-engine/v1",
      "blas_threads": "1",              # OPENBLAS_NUM_THREADS seen
      "host_probe_s": [0.026, 0.025],   # before, after
      "timing": {"number": 200, "repeat": 7},
      "series": [
        {"what": "warm_campaign", "scenario": "default", "k": 32,
         "schemes": ["buzz"], "cells": 1, "us_per_cell": 104.2},
        ...
      ]
    }

BLAS runs on one thread, as under ``python -m repro``, unless the
environment sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``; ``blas_threads`` records the value the run saw.
"""

import argparse
import json
import os
import sys
import tempfile
import timeit
from pathlib import Path

# Before numpy is first imported: its BLAS reads these once.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]

from repro.engine import (  # noqa: E402
    CampaignCache,
    CampaignSpec,
    plan_campaign,
    run_campaign,
)
from repro.network.scenarios import scenario_by_name  # noqa: E402
from workloads import host_probe  # noqa: E402

SEED = 1
#: ``(scenario, K, scheme)`` of each warm one-cell campaign.
WARM = (("default", 32, "buzz"), ("dense-floor", 12, "multi-reader"))
#: ``(scenario, K, locations, traces, schemes)`` of the planned grid.
PLAN_GRID = ("default", 32, 10, 5, ("buzz", "tdma", "cdma"))
_FULL = {"number": 200, "repeat": 7}
_SMOKE = {"number": 20, "repeat": 3}


def best_us(fn, number: int, repeat: int) -> float:
    """Best-of-``repeat`` time of one ``fn()`` call, in µs."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def _spec(name, k, schemes, n_locations=1, n_traces=1) -> CampaignSpec:
    return CampaignSpec(
        scenario=scenario_by_name(name, k),
        root_seed=SEED,
        n_locations=n_locations,
        n_traces=n_traces,
        schemes=tuple(schemes),
    )


def record(timing: dict, cache_root: str) -> list:
    """Every series entry; the warm cells are executed once into ``cache_root``."""
    series = []
    for index, (name, k, scheme) in enumerate(WARM):
        spec = _spec(name, k, (scheme,))
        cache_dir = os.path.join(cache_root, str(index))
        cold = run_campaign(spec, cache_dir=cache_dir).to_json()
        if run_campaign(spec, cache_dir=cache_dir).to_json() != cold:
            raise SystemExit(f"warm pass of {name} K={k} {scheme} differs from cold")
        us = best_us(lambda: run_campaign(spec, cache_dir=cache_dir), **timing)
        series.append({"what": "warm_campaign", "scenario": name, "k": k,
                       "schemes": [scheme], "cells": 1, "us_per_cell": us})
        if index == 0:
            cache = CampaignCache(cache_dir)
            key = plan_campaign(spec).keys[0]
            series.append({"what": "load_key", "scenario": name, "k": k,
                           "schemes": [scheme], "cells": 1,
                           "us_per_cell": best_us(lambda: cache.load_key(key), **timing)})
    name, k, n_locations, n_traces, schemes = PLAN_GRID
    grid = _spec(name, k, schemes, n_locations, n_traces)
    us = best_us(lambda: plan_campaign(grid), number=max(1, timing["number"] // 20),
                 repeat=timing["repeat"])
    series.append({"what": "plan", "scenario": name, "k": k, "schemes": list(schemes),
                   "cells": grid.n_cells, "us_per_cell": us / grid.n_cells})
    for entry in series:
        print(f"{entry['what']:>13} {entry['scenario']:>11} K={entry['k']:<3} "
              f"{','.join(entry['schemes']):<15} {entry['us_per_cell']:8.1f} us/cell",
              flush=True)
    return series


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer timed calls per figure (CI)")
    parser.add_argument(
        "-o", "--output",
        default=str(_ROOT / "BENCH_engine.json"),
        help="output path (default: repo-root BENCH_engine.json)",
    )
    args = parser.parse_args(argv)
    timing = _SMOKE if args.smoke else _FULL
    probes = [host_probe()]
    with tempfile.TemporaryDirectory(prefix="engine-bench-") as cache_root:
        series = record(timing, cache_root)
    probes.append(host_probe())
    payload = {
        "schema": "bench-engine/v1",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "host_probe_s": probes,
        "timing": dict(timing),
        "series": series,
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({len(series)} points)")


if __name__ == "__main__":
    main()
