"""Tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import as_bits, bits_from_int, bits_to_int, random_bits


class TestAsBits:
    def test_accepts_list(self):
        out = as_bits([0, 1, 1])
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 1, 1]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            as_bits([0, 2])

    def test_empty_ok(self):
        assert as_bits([]).size == 0


class TestIntRoundtrip:
    def test_known_value(self):
        assert bits_from_int(5, 4).tolist() == [0, 1, 0, 1]
        assert bits_to_int([0, 1, 0, 1]) == 5

    def test_zero_width(self):
        assert bits_from_int(0, 0).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            bits_from_int(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_from_int(-1, 4)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(bits_from_int(value, 20)) == value


class TestRandomBits:
    def test_length(self):
        assert random_bits(10, np.random.default_rng(0)).size == 10

    def test_p_zero_gives_zeros(self):
        assert not random_bits(100, np.random.default_rng(0), p_one=0.0).any()

    def test_p_one_gives_ones(self):
        assert random_bits(100, np.random.default_rng(0), p_one=1.0).all()

    def test_probability_respected(self):
        bits = random_bits(20_000, np.random.default_rng(0), p_one=0.3)
        assert abs(bits.mean() - 0.3) < 0.02

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_bits(-1, np.random.default_rng(0))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            random_bits(5, np.random.default_rng(0), p_one=1.5)
