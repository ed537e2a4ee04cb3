"""Tests for repro.coding.prng — reader-regenerable tag randomness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.prng import (
    slot_decision,
    slot_decision_matrix,
    transmit_pattern_matrix,
)


class TestSlotDecision:
    def test_deterministic(self):
        assert slot_decision(42, 7, 0.5) == slot_decision(42, 7, 0.5)

    def test_probability_respected(self):
        decisions = [slot_decision(9, s, 0.3) for s in range(20_000)]
        assert abs(np.mean(decisions) - 0.3) < 0.02

    def test_p_zero_and_one(self):
        assert slot_decision(1, 1, 0.0) == 0
        assert slot_decision(1, 1, 1.0) == 1

    def test_salt_decorrelates(self):
        a = [slot_decision(5, s, 0.5, salt=1) for s in range(2000)]
        b = [slot_decision(5, s, 0.5, salt=2) for s in range(2000)]
        agreement = np.mean(np.array(a) == np.array(b))
        assert 0.4 < agreement < 0.6

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**20))
    def test_output_is_binary(self, seed, slot):
        assert slot_decision(seed, slot, 0.5) in (0, 1)


class TestSlotDecisionMatrix:
    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=6),
        st.lists(st.integers(min_value=0, max_value=2**25), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=1000),
    )
    def test_bit_identical_to_scalar(self, seeds, slots, p, salt):
        """The vectorized path must agree with slot_decision on every entry —
        any divergence would desynchronise tags from the reader's D."""
        matrix = slot_decision_matrix(seeds, slots, p, salt)
        assert matrix.shape == (len(slots), len(seeds))
        assert matrix.dtype == np.uint8
        for j, slot in enumerate(slots):
            for i, seed in enumerate(seeds):
                assert matrix[j, i] == slot_decision(seed, slot, p, salt)

    def test_empty_inputs(self):
        assert slot_decision_matrix([], range(4), 0.5).shape == (4, 0)
        assert slot_decision_matrix([1, 2], [], 0.5).shape == (0, 2)

    def test_probability_respected(self):
        matrix = slot_decision_matrix(range(50), range(500), 0.3)
        assert abs(matrix.mean() - 0.3) < 0.02

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            slot_decision_matrix([1], [1], 1.5)


class TestTransmitPattern:
    def test_matrix_matches_columns(self):
        seeds = [3, 14, 159]
        matrix = transmit_pattern_matrix(seeds, 32, p=0.5)
        assert matrix.shape == (32, 3)
        for col, seed in enumerate(seeds):
            assert np.array_equal(
                matrix[:, col], transmit_pattern_matrix([seed], 32, p=0.5)[:, 0]
            )

    def test_empty_seed_list(self):
        assert transmit_pattern_matrix([], 8).shape == (8, 0)

    def test_reader_tag_agreement(self):
        """The core protocol property: a tag generating its own pattern and
        a reader regenerating it from the id must agree bit-for-bit."""
        seed = 0xABCD
        tag_view = np.array([slot_decision(seed, j, 0.5) for j in range(64)], dtype=np.uint8)
        reader_view = transmit_pattern_matrix([seed], 64, p=0.5)[:, 0]
        assert np.array_equal(tag_view, reader_view)

    def test_distinct_seeds_give_distinct_patterns(self):
        m = transmit_pattern_matrix(list(range(40)), 64, p=0.5)
        # No two 64-slot patterns should coincide (prob ~2^-64 each).
        assert len({tuple(col) for col in m.T}) == 40
