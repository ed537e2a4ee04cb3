"""Tests for repro.utils.stats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import empirical_cdf


class TestEmpiricalCdf:
    def test_monotone_and_ends_at_one(self):
        x, f = empirical_cdf([3.0, 1.0, 2.0])
        assert np.all(np.diff(x) >= 0)
        assert np.all(np.diff(f) >= 0)
        assert f[-1] == pytest.approx(1.0)

    def test_fraction_below_median(self):
        x, f = empirical_cdf(list(range(100)))
        idx = np.searchsorted(x, 49)
        assert f[idx] == pytest.approx(0.5, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_output_lengths_match(self, values):
        x, f = empirical_cdf(values)
        assert x.size == f.size == len(values)
