"""Tests for repro.sensing.matrices."""

import numpy as np

from repro.sensing.matrices import bernoulli_matrix


class TestBernoulliMatrix:
    def test_shape_and_dtype(self):
        m = bernoulli_matrix(10, 20, 0.5, np.random.default_rng(0))
        assert m.shape == (10, 20) and m.dtype == np.uint8

    def test_density(self):
        m = bernoulli_matrix(200, 200, 0.3, np.random.default_rng(1))
        assert abs(m.mean() - 0.3) < 0.02

    def test_extremes(self):
        rng = np.random.default_rng(2)
        assert not bernoulli_matrix(5, 5, 0.0, rng).any()
        assert bernoulli_matrix(5, 5, 1.0, rng).all()

