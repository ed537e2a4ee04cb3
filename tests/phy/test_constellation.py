"""Tests for repro.phy.constellation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy.constellation import (
    collision_constellation,
    min_distance,
    nearest_point,
)
from repro.utils.bits import bits_from_int


class TestCollisionConstellation:
    def test_single_channel_two_points(self):
        c = collision_constellation([0.5 + 0.1j])
        assert c.size == 2
        assert np.allclose(sorted(np.abs(c.points)), sorted([0.0, abs(0.5 + 0.1j)]))

    def test_two_channels_four_points(self):
        c = collision_constellation([1.0, 1.0j])
        assert c.size == 4
        assert set(np.round(c.points, 6).tolist()) == {0, 1, 1j, 1 + 1j}

    def test_labels_match_points(self):
        h = np.array([0.3, 0.7j, 1.1])
        c = collision_constellation(h)
        for label, point in zip(c.labels, c.points):
            assert point == pytest.approx(complex(label.astype(float) @ h))

    def test_cw_offset_applied(self):
        c = collision_constellation([1.0], cw_level=5.0)
        assert np.allclose(sorted(c.points.real), [5.0, 6.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collision_constellation([])

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            collision_constellation(np.ones(17))

    @pytest.mark.parametrize("cw_level", [0.0, 0.4 - 0.25j])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_bitwise_enumeration(self, k, cw_level):
        # Reference: one big-endian bits_from_int row per constellation
        # index, points as labels·h plus the CW offset.
        rng = np.random.default_rng(100 + k)
        h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        labels = np.zeros((1 << k, k), dtype=np.uint8)
        for value in range(1 << k):
            labels[value] = bits_from_int(value, k)
        c = collision_constellation(h, cw_level=cw_level)
        assert c.labels.dtype == np.uint8
        np.testing.assert_array_equal(c.labels, labels)
        np.testing.assert_array_equal(c.points, labels.astype(float) @ h + cw_level)

    @given(st.integers(min_value=1, max_value=6))
    def test_point_count_is_power_of_two(self, k):
        rng = np.random.default_rng(k)
        h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert collision_constellation(h).size == 2**k


class TestMinDistance:
    def test_known(self):
        assert min_distance(np.array([0.0, 3.0, 10.0])) == pytest.approx(3.0)

    def test_single_point_inf(self):
        assert min_distance(np.array([1.0])) == np.inf

    def test_degenerate_pair_zero(self):
        # h2 = -h1 makes (1,0) and (0,1) coincide... here explicit duplicates.
        assert min_distance(np.array([1.0, 1.0])) == pytest.approx(0.0)


class TestDecode:
    def test_nearest_point_index(self):
        points = np.array([0.0, 1.0, 1j])
        assert nearest_point(np.array([0.9]), points)[0] == 1
        assert nearest_point(np.array([0.1j + 0.05]), points)[0] == 0

    def test_decode_recovers_bits_at_high_snr(self):
        rng = np.random.default_rng(0)
        h = np.array([1.0, 0.5j, 0.3 + 0.3j])
        c = collision_constellation(h)
        bits = (rng.random((200, 3)) < 0.5).astype(np.uint8)
        symbols = bits.astype(float) @ h + 0.01 * (
            rng.standard_normal(200) + 1j * rng.standard_normal(200)
        )
        decoded = c.decode(symbols)
        assert np.array_equal(decoded, bits)

    def test_empty_constellation_rejected(self):
        with pytest.raises(ValueError):
            nearest_point(np.array([1.0]), np.array([]))
