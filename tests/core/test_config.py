"""Tests for repro.core.config."""

import dataclasses

import pytest

from repro.core.config import (
    BUCKETS_PER_NODE,
    CS_MIN_SLOTS,
    DENSITY_MAX,
    DENSITY_MIN,
    BuzzConfig,
)
from repro.core.kestimate import EMPTY_THRESHOLD


class TestBuzzConfigDefaults:
    def test_paper_values(self):
        cfg = BuzzConfig()
        assert cfg.slots_per_step == 4
        assert EMPTY_THRESHOLD == pytest.approx(0.75)
        assert BUCKETS_PER_NODE == 10

    def test_only_the_varied_knobs_are_fields(self):
        names = [f.name for f in dataclasses.fields(BuzzConfig)]
        assert names == ["slots_per_step", "density_colliders", "bp_restarts"]

    def test_a_equals_k(self):
        cfg = BuzzConfig()
        assert cfg.a(16) == 16  # paper: a = K

    def test_a_floor(self):
        assert BuzzConfig().a(1) == 2

    def test_n_buckets(self):
        assert BuzzConfig().n_buckets(8) == 80

    def test_temp_id_space(self):
        cfg = BuzzConfig()
        assert cfg.temp_id_space(8) == cfg.a(8) * cfg.n_buckets(8)


#: K → (a, n_buckets, temp_id_space, cs_slots, data_density, max_data_slots)
#: under the default config, as the paper's parameters give them.
DERIVED_TABLE = {
    0: (2, 10, 20, 16, 0.85, 25),
    1: (2, 10, 20, 16, 0.85, 25),
    2: (2, 20, 40, 16, 0.85, 50),
    8: (8, 80, 640, 36, 0.625, 200),
    9: (9, 90, 810, 43, 0.5555555555555556, 225),
    12: (12, 120, 1440, 65, 0.4166666666666667, 300),
    32: (32, 320, 10240, 240, 0.2, 800),
    64: (64, 640, 40960, 576, 0.2, 1600),
    500: (500, 5000, 2500000, 6725, 0.2, 12500),
    2000: (2000, 20000, 40000000, 32898, 0.2, 50000),
}


@pytest.mark.parametrize("k", sorted(DERIVED_TABLE))
def test_derived_parameters_table(k):
    cfg = BuzzConfig()
    assert (
        cfg.a(k),
        cfg.n_buckets(k),
        cfg.temp_id_space(k),
        cfg.cs_slots(k),
        cfg.data_density(k),
        cfg.max_data_slots(k),
    ) == DERIVED_TABLE[k]


class TestDerivedParameters:
    def test_cs_slots_grows_with_k(self):
        cfg = BuzzConfig()
        assert cfg.cs_slots(4) < cfg.cs_slots(16)

    def test_cs_slots_floor(self):
        cfg = BuzzConfig()
        assert cfg.cs_slots(0) == cfg.cs_slots(1) == CS_MIN_SLOTS

    def test_cs_slots_at_least_2k(self):
        cfg = BuzzConfig()
        for k in (4, 8, 16, 32):
            assert cfg.cs_slots(k) >= 2 * k

    def test_density_clamped(self):
        cfg = BuzzConfig(density_colliders=5.0)
        assert cfg.data_density(2) == pytest.approx(DENSITY_MAX)
        assert cfg.data_density(100) == pytest.approx(DENSITY_MIN)

    def test_density_mid_range(self):
        cfg = BuzzConfig(density_colliders=5.0)
        assert cfg.data_density(16) == pytest.approx(5.0 / 16)

    def test_expected_colliders_tracks_target(self):
        cfg = BuzzConfig(density_colliders=5.0)
        for k in (8, 10, 16):
            assert k * cfg.data_density(k) == pytest.approx(5.0, abs=1.0)

    def test_max_data_slots(self):
        assert BuzzConfig().max_data_slots(8) == 200

    def test_max_data_slots_floor(self):
        cfg = BuzzConfig()
        assert cfg.max_data_slots(0) == cfg.max_data_slots(1) == 25


class TestValidation:
    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            BuzzConfig(bp_restarts=-1)

    def test_bad_density_colliders(self):
        with pytest.raises(ValueError):
            BuzzConfig(density_colliders=0.0)

    def test_frozen(self):
        cfg = BuzzConfig()
        with pytest.raises(Exception):
            cfg.bp_restarts = 5
