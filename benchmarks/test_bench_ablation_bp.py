"""Ablation: BP decoder — restarts and pair-flip escape moves.

Bit flipping is a local search. Two engineering additions beyond paper
Alg. 1 are ablated here:

* random restarts (the paper initialises randomly once);
* joint pair flips, which escape the two-bit minima created by
  near-cancelling channel pairs (h_i ≈ −h_j).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.reference import BitFlipDecoder


def _instance(rng, k=10, n_slots=8, density=0.5, noise=0.02):
    h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    h += np.sign(h.real) * 0.4
    d = (rng.random((n_slots, k)) < density).astype(np.uint8)
    bits = (rng.random(k) < 0.5).astype(np.uint8)
    y = (d * h) @ bits + noise * (rng.standard_normal(n_slots) + 1j * rng.standard_normal(n_slots))
    return d, h, bits, y


def _success_rate(restarts: int, trials: int = 40) -> float:
    wins = 0
    for trial in range(trials):
        rng = np.random.default_rng(trial)
        d, h, bits, y = _instance(rng)
        outcome = BitFlipDecoder(d, h).decode_best_of(y, restarts=restarts, rng=rng)
        wins += int(np.array_equal(outcome.bits, bits))
    return wins / trials


def test_bench_ablation_bp_restarts(benchmark):
    rates = run_once(benchmark, lambda: {r: _success_rate(r) for r in (0, 2, 6)})
    print()
    for restarts, rate in rates.items():
        print(f"  restarts={restarts}: exact-decode rate={100 * rate:5.1f}%")
    assert rates[6] >= rates[0]


def test_bench_bp_decode_speed(benchmark):
    """Raw decoder throughput on a Fig. 9-sized instance (14 tags)."""
    rng = np.random.default_rng(7)
    d, h, bits, y = _instance(rng, k=14, n_slots=12, density=0.36)
    decoder = BitFlipDecoder(d, h)
    init = (np.random.default_rng(8).random(14) < 0.5).astype(np.uint8)

    outcome = benchmark(lambda: decoder.decode(y, init=init.copy()))
    assert outcome.converged
