"""Tests for repro.sensing.basis_pursuit.

The supports the L1 solve selects on the 40 seeded identification
instances are pinned in ``data/basis_pursuit_supports.json``: the optimum
is not unique on some of them, so the solver's path picks the vertex, and
a HiGHS or scipy change that moves it must fail here. Regenerate (only
for a deliberate, documented change) with
``PYTHONPATH=src python tests/sensing/test_basis_pursuit.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.phy.noise import awgn
from repro.sensing.basis_pursuit import RecoveryError, basis_pursuit, basis_pursuit_complex
from repro.sensing.matrices import bernoulli_matrix
from repro.sensing.recovery import support_from_estimate

SUPPORTS = Path(__file__).parent / "data" / "basis_pursuit_supports.json"
#: The identification instances: 40 seeds at one noise level.
SEEDS = range(40)
SIGMA = 0.1
EPS = 2.0 * SIGMA / np.sqrt(2.0)


def _sparse_problem(rng, m=40, n=100, k=4, complex_values=False):
    a = bernoulli_matrix(m, n, 0.1, rng).astype(float)
    z = np.zeros(n, dtype=complex if complex_values else float)
    support = rng.choice(n, size=k, replace=False)
    if complex_values:
        z[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    else:
        z[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k)) * 0.5
    return a, z, support


def _two_sided_oracle(a, y, eps):
    """Reference L1 solve: the band ``|Az − y| ≤ ε`` as 2M inequality rows
    over ``[A, −A]`` (the equality form when ε = 0), HiGHS with presolve."""
    from scipy.optimize import linprog

    n = a.shape[1]
    stacked = np.hstack([a, -a])
    if eps == 0.0:
        result = linprog(
            np.ones(2 * n), A_eq=stacked, b_eq=y,
            bounds=[(0, None)] * (2 * n), method="highs",
        )
    else:
        result = linprog(
            np.ones(2 * n),
            A_ub=np.vstack([stacked, -stacked]),
            b_ub=np.concatenate([y + eps, -(y - eps)]),
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
    assert result.success, result.message
    return result.x[:n] - result.x[n:]


def _identification_instance(seed, sigma):
    """Bernoulli(0.5) patterns and K ≤ 12 complex tags, shaped like the
    LPs identification solves: M in [58, 193], N/M in [1.1, 3.5]."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(58, 194))
    n = int(round(m * rng.uniform(1.1, 3.5)))
    k = int(rng.integers(1, 13))
    a = bernoulli_matrix(m, n, 0.5, rng).astype(float)
    z = np.zeros(n, dtype=complex)
    support = rng.choice(n, size=k, replace=False)
    z[support] = rng.uniform(0.5, 2.0, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return a, a @ z + awgn(m, sigma, rng)


class TestAgainstTwoSidedOracle:
    """The M-row slack LP against the 2M-row two-sided form it replaced.

    Identification reads only the support the LP estimate selects, so the
    two forms must select the same support. The optimal L1 value must
    agree too; the minimiser need not, because on some instances the LP
    has several optimal vertices and the two forms land on different ones.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_support_and_optimum(self, seed):
        a, y = _identification_instance(seed, SIGMA)
        estimate = basis_pursuit_complex(a, y, eps=EPS)
        reference = _two_sided_oracle(a, y.real, EPS) + 1j * _two_sided_oracle(a, y.imag, EPS)
        assert np.array_equal(
            support_from_estimate(estimate, noise_std=SIGMA),
            support_from_estimate(reference, noise_std=SIGMA),
        )
        for part in (np.real, np.imag):
            assert abs(np.abs(part(estimate)).sum() - np.abs(part(reference)).sum()) < 1e-9
            assert np.max(np.abs(a @ part(estimate) - part(y))) <= EPS + 1e-9

    def test_noiseless_matches_oracle(self):
        rng = np.random.default_rng(41)
        a = bernoulli_matrix(80, 200, 0.5, rng).astype(float)
        z = np.zeros(200, dtype=complex)
        z[rng.choice(200, size=6, replace=False)] = rng.uniform(0.5, 2.0, 6) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 6)
        )
        y = a @ z
        estimate = basis_pursuit_complex(a, y)
        reference = _two_sided_oracle(a, y.real, 0.0) + 1j * _two_sided_oracle(a, y.imag, 0.0)
        assert np.max(np.abs(estimate - reference)) < 1e-9
        assert np.allclose(estimate, z, atol=1e-6)


def _selected_support(seed):
    """The support identification reads off the L1 estimate."""
    a, y = _identification_instance(seed, SIGMA)
    estimate = basis_pursuit_complex(a, y, eps=EPS)
    return support_from_estimate(estimate, noise_std=SIGMA).tolist()


@pytest.fixture(scope="module")
def pinned_supports():
    return json.loads(SUPPORTS.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_selected_support_matches_golden(pinned_supports, seed):
    # A numeric-stack change that moves the L1 vertex moves supports
    # with no change to this repository's code.
    assert _selected_support(seed) == pinned_supports[str(seed)]


class TestInfeasibleBand:
    @pytest.mark.parametrize("seed", range(5))
    def test_tight_band_with_more_rows_than_columns_raises(self, seed):
        rng = np.random.default_rng(seed)
        a = bernoulli_matrix(60, 30, 0.5, rng).astype(float)
        y = a @ rng.standard_normal(30) + 0.1 * rng.standard_normal(60)
        with pytest.raises(RecoveryError, match="infeasible"):
            basis_pursuit(a, y, eps=0.01)


class TestBasisPursuitReal:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(0)
        a, z, _ = _sparse_problem(rng)
        estimate = basis_pursuit(a, a @ z)
        assert np.allclose(estimate, z, atol=1e-6)

    def test_zero_measurement_gives_zero(self):
        a = bernoulli_matrix(10, 20, 0.3, np.random.default_rng(1)).astype(float)
        estimate = basis_pursuit(a, np.zeros(10))
        assert np.allclose(estimate, 0.0, atol=1e-9)

    def test_eps_band_tolerates_noise(self):
        rng = np.random.default_rng(2)
        a, z, support = _sparse_problem(rng)
        y = a @ z + 0.01 * rng.standard_normal(a.shape[0])
        estimate = basis_pursuit(a, y, eps=0.05)
        assert np.allclose(estimate[support], z[support], atol=0.15)

    def test_l1_minimality(self):
        """The solution's L1 norm must not exceed the true sparse vector's."""
        rng = np.random.default_rng(3)
        a, z, _ = _sparse_problem(rng)
        estimate = basis_pursuit(a, a @ z)
        assert np.sum(np.abs(estimate)) <= np.sum(np.abs(z)) + 1e-6

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            basis_pursuit(np.ones((3, 4)), np.ones(5))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            basis_pursuit(np.ones((2, 2)), np.ones(2), eps=-1.0)

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(ValueError):
            basis_pursuit(np.ones(4), np.ones(4))


class TestBasisPursuitComplex:
    def test_exact_recovery(self):
        rng = np.random.default_rng(4)
        a, z, _ = _sparse_problem(rng, complex_values=True)
        estimate = basis_pursuit_complex(a, a @ z)
        assert np.allclose(estimate, z, atol=1e-6)

    def test_real_imag_decoupling(self):
        """With a real matrix the complex problem is exactly two real ones."""
        rng = np.random.default_rng(5)
        a, z, _ = _sparse_problem(rng, complex_values=True)
        y = a @ z
        joint = basis_pursuit_complex(a, y)
        split = basis_pursuit(a, y.real) + 1j * basis_pursuit(a, y.imag)
        assert np.allclose(joint, split, atol=1e-9)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported by basis_pursuit on first use, so starting
    # the CLI (and every spawned worker) does not pay for it.
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import repro.__main__; "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


if __name__ == "__main__":
    SUPPORTS.parent.mkdir(exist_ok=True)
    lines = [f' "{seed}": {json.dumps(_selected_support(seed))}' for seed in SEEDS]
    SUPPORTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
