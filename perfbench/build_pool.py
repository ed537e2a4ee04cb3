"""Build ``pool.json``: the candidate cells the seeded workloads draw from.

Decode cost varies several-fold from one deployment to the next, so a
load of a few dozen cells drawn at random would swing with the seed.
Instead each cell-bound workload draws from a pinned pool, split into
difficulty strata by the cell's host time, measured once here. A load's
sweep holds one cell of every stratum, and the seed picks which
candidate of each stratum it is. Any two seeds therefore run different
cells of the same difficulty mix. (No deterministic count in a record
ranks cells by cost well: ``slots_used`` has a rank correlation of about
0.3 with host time on ``paper-decode``.)

A candidate's cost is the best of ``PASSES`` timings taken in separate
passes over the whole candidate list, minutes apart, so that a stretch
in which the shared host ran slowly does not misplace it in the ranking.

The slowest candidates (one in 25, 4 %) are left out, so no sweep
measures the decoder's abort path: on ``paper-decode`` the slowest cell
runs to the 25·K slot abort and costs as much as a dozen ordinary ones,
so whether a seed drew it would decide its load's throughput.

Why a pool at all: from these timings, over 400 seeds, the spread between
quartiles of ``cells_per_s`` caused by which cells a seed draws alone is
0.12 on ``paper-decode`` and 0.21 on ``sessions`` when the seed draws the
same number of cells straight from every candidate, against 0.007 and
0.018 from the pool (see ``README.md``).

Run once, from the repository root (about a quarter of an hour)::

    python3 perfbench/build_pool.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro import engine  # noqa: E402
from workloads import (  # noqa: E402
    POOL,
    SESSION_MIX,
    STRATA,
    STRATUM_SIZE,
    decode_spec,
    root_seed,
    session_spec,
)

PASSES = 3


def pool_size(name: str) -> int:
    return STRATA[name] * STRATUM_SIZE


def main() -> None:
    makers = {"paper-decode": decode_spec}
    for scenario, scheme in SESSION_MIX:
        makers[scheme] = lambda seed, scenario=scenario, scheme=scheme: (
            session_spec(scenario, scheme, seed))
    candidates = [
        (name, root_seed(f"{name}-pool", 0, j))
        for name in makers
        for j in range(pool_size(name) * 25 // 24)
    ]
    for name, make_spec in makers.items():  # warm-up
        engine.run_campaign(make_spec(root_seed(f"{name}-pool", 1, 0)))
    best = {}
    for p in range(PASSES):
        for name, seed in candidates:
            start = time.perf_counter()
            engine.run_campaign(makers[name](seed))
            elapsed = time.perf_counter() - start
            best[name, seed] = min(best.get((name, seed), elapsed), elapsed)
            print(f"pass {p} {name} {seed} {elapsed:.3f}s", flush=True)
    pool = {
        name: [seed for _, seed in sorted(
            (best[name, seed], seed) for n, seed in candidates if n == name
        )[:pool_size(name)]]
        for name in makers
    }
    POOL.write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {POOL}")


if __name__ == "__main__":
    main()
