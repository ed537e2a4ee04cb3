"""Ablation: Stage-3 sparse-recovery solver (paper's LP vs greedy family).

The paper's solver family is L1 minimisation; here it is one M-row LP
solved by HiGHS's dual simplex with presolve off (see
``repro.sensing.basis_pursuit``). Faster greedy solvers exist ([5] in the
paper). This bench compares success rate and wall time of the four solvers
on identification-shaped problems.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.phy.noise import awgn
from repro.sensing.matrices import bernoulli_matrix
from repro.sensing.recovery import recover_sparse


def _solver_stats(method: str, trials: int = 12):
    successes = 0
    start = time.perf_counter()
    for trial in range(trials):
        rng = np.random.default_rng(trial)
        a = bernoulli_matrix(64, 160, 0.5, rng).astype(float)
        z = np.zeros(160, dtype=complex)
        support = np.sort(rng.choice(160, size=8, replace=False))
        z[support] = np.exp(1j * rng.uniform(0, 2 * np.pi, 8)) * rng.uniform(0.5, 2.0, 8)
        y = a @ z + awgn(64, 0.05, rng)
        result = recover_sparse(a, y, sparsity=8, method=method, noise_std=0.05)
        successes += int(set(result.support.tolist()) == set(support.tolist()))
    elapsed = time.perf_counter() - start
    return successes / trials, elapsed / trials


def test_bench_ablation_solvers(benchmark):
    stats = run_once(
        benchmark,
        lambda: {m: _solver_stats(m) for m in ("bp", "omp", "cosamp", "iht")},
    )
    print()
    for method, (rate, seconds) in stats.items():
        print(f"  {method:>6}: success={100 * rate:5.1f}%  {1e3 * seconds:7.2f} ms/solve")
    # The paper's LP solver must be (near-)perfect on these instances.
    assert stats["bp"][0] >= 0.9
    # OMP is the fast alternative and should also recover reliably here.
    assert stats["omp"][0] >= 0.8
