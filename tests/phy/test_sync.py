"""Tests for repro.phy.sync."""

import numpy as np
import pytest

from repro.phy.sync import (
    COMMERCIAL_RFID_SYNC,
    MOO_RFID_SYNC,
    ClockModel,
    SyncProfile,
    misalignment_fraction,
)
from repro.utils.units import us


class TestSyncProfile:
    def test_paper_profiles_ordered(self):
        # The Moo's trigger detection is jitterier than commercial tags'.
        assert MOO_RFID_SYNC.p90_offset_s > COMMERCIAL_RFID_SYNC.p90_offset_s

    def test_samples_capped_at_max(self):
        rng = np.random.default_rng(0)
        offsets = MOO_RFID_SYNC.sample(10_000, rng)
        assert offsets.max() <= MOO_RFID_SYNC.max_offset_s

    def test_p90_approximately_matches(self):
        rng = np.random.default_rng(1)
        offsets = COMMERCIAL_RFID_SYNC.sample(50_000, rng)
        assert np.percentile(offsets, 90) == pytest.approx(
            COMMERCIAL_RFID_SYNC.p90_offset_s, rel=0.1
        )

    def test_all_non_negative(self):
        rng = np.random.default_rng(2)
        assert (MOO_RFID_SYNC.sample(1000, rng) >= 0).all()

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            SyncProfile("bad", p90_offset_s=us(1.0), max_offset_s=us(0.5))


class TestClockModel:
    def test_offset_grows_linearly(self):
        clock = ClockModel(drift_ppm=100.0)
        assert clock.offset_after(1.0, corrected=False) == pytest.approx(100e-6)
        assert clock.offset_after(2.0, corrected=False) == pytest.approx(200e-6)

    def test_correction_shrinks_offset(self):
        clock = ClockModel(drift_ppm=300.0, residual_ppm=1.0)
        raw = clock.offset_after(1.0, corrected=False)
        fixed = clock.offset_after(1.0, corrected=True)
        assert fixed < raw / 100

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            ClockModel(drift_ppm=1.0).offset_after(-1.0, corrected=False)

    def test_sample_offsets_length(self):
        clock = ClockModel(drift_ppm=50.0)
        offsets = clock.sample_offsets(80_000.0, 10, corrected=False)
        assert offsets.shape == (10,)
        assert offsets[0] == 0.0

    def test_population_draw(self):
        clocks = ClockModel.sample_population(20, np.random.default_rng(0))
        assert len(clocks) == 20
        signs = {np.sign(c.drift_ppm) for c in clocks}
        assert signs == {-1.0, 1.0}  # both directions occur


class TestMisalignment:
    def test_paper_figure8_magnitude(self):
        # Relative drift of 3125 ppm at 80 kbps for 2 ms → 50 % of a bit.
        a = ClockModel(drift_ppm=0.0)
        b = ClockModel(drift_ppm=3125.0)
        frac = misalignment_fraction(a, b, 2e-3, 80_000.0, corrected=False)
        assert frac == pytest.approx(0.5, rel=0.01)

    def test_corrected_small(self):
        a = ClockModel(drift_ppm=0.0, residual_ppm=0.0)
        b = ClockModel(drift_ppm=3125.0, residual_ppm=5.0)
        frac = misalignment_fraction(a, b, 2e-3, 80_000.0, corrected=True)
        assert frac < 0.01
