"""Tests for repro.nodes.tag."""

import numpy as np
import pytest

from repro.coding.prng import slot_decision
from repro.nodes.tag import (
    SALT_DATA,
    BackscatterTag,
    bucket_hash,
)


def _tag(**kwargs):
    defaults = dict(global_id=1234, channel=0.5 + 0.2j)
    defaults.update(kwargs)
    return BackscatterTag(**defaults)


class TestTagBasics:
    def test_message_coerced_to_bits(self):
        tag = _tag(message=[1, 0, 1])
        assert tag.message.dtype == np.uint8

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            _tag(global_id=-1)


class TestPhaseDecisions:
    def test_kest_deterministic(self):
        tag = _tag()
        assert tag.kest_transmits(1, 0, 0.5) == tag.kest_transmits(1, 0, 0.5)

    def test_kest_session_nonce_changes_coins(self):
        tag = _tag()
        coins_a = [tag.kest_transmits(1, s, 0.5, session=0) for s in range(64)]
        coins_b = [tag.kest_transmits(1, s, 0.5, session=1) for s in range(64)]
        assert coins_a != coins_b

    def test_kest_probability_respected(self):
        tag = _tag()
        draws = [tag.kest_transmits(3, s, 0.125) for s in range(8000)]
        assert abs(np.mean(draws) - 0.125) < 0.02

    def test_temp_id_required_for_later_phases(self):
        tag = _tag()
        with pytest.raises(RuntimeError):
            tag.bucket_of(10)
        with pytest.raises(RuntimeError):
            tag.cs_pattern_bit(0)
        with pytest.raises(RuntimeError):
            tag.data_transmits(0, 0.5)

    def test_draw_temp_id_in_range(self):
        tag = _tag()
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 0 <= tag.draw_temp_id(37, rng) < 37

    def test_data_decision_matches_reader_view(self):
        """Tag-side and reader-side D generation must agree exactly."""
        tag = _tag()
        tag.temp_id = 77
        tag_view = [tag.data_transmits(s, 0.4) for s in range(64)]
        reader_view = [bool(slot_decision(77, s, 0.4, salt=SALT_DATA)) for s in range(64)]
        assert tag_view == reader_view

    def test_phases_are_decorrelated(self):
        tag = _tag()
        tag.temp_id = tag.global_id  # same seed across phases
        pattern = [tag.cs_pattern_bit(s) for s in range(2000)]
        data = [int(tag.data_transmits(s, 0.5)) for s in range(2000)]
        agreement = np.mean(np.array(pattern) == np.array(data))
        assert 0.45 < agreement < 0.55


class TestBucketHash:
    def test_deterministic(self):
        assert bucket_hash(42, 10) == bucket_hash(42, 10)

    def test_in_range(self):
        for i in range(500):
            assert 0 <= bucket_hash(i, 13) < 13

    def test_roughly_uniform(self):
        counts = np.bincount([bucket_hash(i, 10) for i in range(10_000)], minlength=10)
        assert counts.min() > 800 and counts.max() < 1200

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            bucket_hash(1, 0)

    def test_array_hash_matches_scalar(self):
        """The reader's vectorized candidate-elimination hash must equal the
        scalar tag-side hash bit for bit over the whole id space."""
        from repro.nodes.tag import bucket_hash_array

        ids = np.arange(4096)
        batched = bucket_hash_array(ids, 37)
        assert np.array_equal(batched, [bucket_hash(int(i), 37) for i in ids])

    def test_array_hash_invalid_bucket_count(self):
        from repro.nodes.tag import bucket_hash_array

        with pytest.raises(ValueError):
            bucket_hash_array(np.arange(4), 0)
