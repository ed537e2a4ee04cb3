"""Tests for repro.phy.noise."""

import numpy as np
import pytest

from repro.phy.noise import awgn, snr_db


class TestAwgn:
    def test_shape(self):
        n = awgn((3, 4), 0.1, np.random.default_rng(0))
        assert n.shape == (3, 4) and n.dtype == complex

    def test_power_matches_std(self):
        n = awgn(200_000, 0.5, np.random.default_rng(1))
        assert np.mean(np.abs(n) ** 2) == pytest.approx(0.25, rel=0.02)

    def test_circular_symmetry(self):
        n = awgn(100_000, 1.0, np.random.default_rng(2))
        assert abs(np.mean(n.real * n.imag)) < 0.01
        assert np.var(n.real) == pytest.approx(np.var(n.imag), rel=0.05)

    def test_zero_std_is_silent(self):
        n = awgn(10, 0.0, np.random.default_rng(3))
        assert not n.any()

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            awgn(4, -0.1, np.random.default_rng(0))


class TestSnrHelpers:
    def test_snr_roundtrip(self):
        rng = np.random.default_rng(4)
        signal = np.full(50_000, 1.0 + 0j)
        noise_std = 10 ** (-13 / 20)  # a unit-amplitude signal at 13 dB
        assert snr_db(signal, noise_std) == pytest.approx(13.0, abs=0.1)

    def test_snr_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(4), 0.0)
