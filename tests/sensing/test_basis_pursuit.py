"""Tests for repro.sensing.basis_pursuit."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sensing.basis_pursuit import basis_pursuit, basis_pursuit_complex
from repro.sensing.matrices import bernoulli_matrix


def _sparse_problem(rng, m=40, n=100, k=4, complex_values=False):
    a = bernoulli_matrix(m, n, 0.1, rng).astype(float)
    z = np.zeros(n, dtype=complex if complex_values else float)
    support = rng.choice(n, size=k, replace=False)
    if complex_values:
        z[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    else:
        z[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k)) * 0.5
    return a, z, support


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
