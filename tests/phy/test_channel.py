"""Tests for repro.phy.channel."""

import numpy as np
import pytest

from repro.phy.channel import (
    COHERENCE_S,
    ChannelModel,
    ChannelTrajectory,
    MobilityModel,
    channels_for_snr_band,
)


class TestChannelModel:
    def test_sample_count_and_dtype(self):
        model = ChannelModel()
        h = model.sample(8, np.random.default_rng(0))
        assert h.shape == (8,) and h.dtype == complex

    def test_mean_snr_respected(self):
        model = ChannelModel(mean_snr_db=20.0, near_far_db=0.0, rician_k_db=40.0, noise_std=0.1)
        h = model.sample(2000, np.random.default_rng(1))
        snrs = model.snrs_db(h)
        assert abs(np.mean(snrs) - 20.0) < 0.5

    def test_near_far_spread_grows(self):
        rng = np.random.default_rng(2)
        narrow = ChannelModel(near_far_db=0.1, rician_k_db=40.0)
        wide = ChannelModel(near_far_db=24.0, rician_k_db=40.0)
        lo_n, hi_n = narrow.snr_range_db(narrow.sample(200, rng))
        lo_w, hi_w = wide.snr_range_db(wide.sample(200, np.random.default_rng(2)))
        assert hi_w - lo_w > hi_n - lo_n + 6.0

    def test_snr_range_orders(self):
        model = ChannelModel()
        h = model.sample(16, np.random.default_rng(3))
        lo, hi = model.snr_range_db(h)
        assert lo <= hi

    def test_negative_near_far_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(near_far_db=-1.0)


class TestChannelsForSnrBand:
    def test_snrs_inside_band(self):
        rng = np.random.default_rng(5)
        h = channels_for_snr_band(200, 5.0, 15.0, rng, noise_std=0.1)
        snrs = 20 * np.log10(np.abs(h) / 0.1)
        assert snrs.min() >= 4.9 and snrs.max() <= 15.1

    def test_band_order_enforced(self):
        with pytest.raises(ValueError):
            channels_for_snr_band(4, 15.0, 5.0, np.random.default_rng(0))

    def test_phases_spread(self):
        rng = np.random.default_rng(6)
        h = channels_for_snr_band(500, 10.0, 10.0, rng)
        angles = np.angle(h)
        assert angles.std() > 1.0  # roughly uniform on the circle


class TestMobilityModel:
    def test_defaults_are_static(self):
        assert MobilityModel().is_static
        assert not MobilityModel(drift_rate_hz=1.0).is_static
        assert not MobilityModel(departure_rate_hz=1.0).is_static
        assert not MobilityModel(late_arrival_fraction=0.5).is_static

    def test_validation(self):
        with pytest.raises(ValueError):
            MobilityModel(drift_rate_hz=-1.0)
        with pytest.raises(ValueError):
            MobilityModel(departure_rate_hz=-0.1)
        with pytest.raises(ValueError):
            MobilityModel(late_arrival_fraction=1.5)


class TestChannelTrajectory:
    def _base(self, n=16, seed=0):
        rng = np.random.default_rng(seed)
        return ChannelModel(noise_std=0.1).sample(n, rng)

    def test_deterministic_given_seed(self):
        base = self._base()
        model = MobilityModel(drift_rate_hz=10.0, departure_rate_hz=2.0)
        a = ChannelTrajectory(base, model, np.random.default_rng(3))
        b = ChannelTrajectory(base, model, np.random.default_rng(3))
        assert np.array_equal(a.channels_at(0.123), b.channels_at(0.123))
        assert np.array_equal(a.departures, b.departures)

    def test_static_model_never_moves(self):
        base = self._base()
        traj = ChannelTrajectory(base, MobilityModel(), np.random.default_rng(1))
        assert np.array_equal(traj.channels_at(0.0), base)
        assert np.array_equal(traj.channels_at(5.0), base)
        assert traj.active_at(100.0).all()

    def test_drift_decorrelates_but_preserves_power(self):
        base = self._base(n=400)
        model = MobilityModel(drift_rate_hz=20.0)
        traj = ChannelTrajectory(base, model, np.random.default_rng(2))
        h0 = traj.channels_at(0.0)
        h_late = traj.channels_at(0.2)  # corr ≈ e^-4
        corr = abs(np.vdot(h0, h_late)) / (
            np.linalg.norm(h0) * np.linalg.norm(h_late)
        )
        assert corr < 0.35
        # Per-tag mean power is preserved (the tag stays in its range class).
        assert np.linalg.norm(h_late) == pytest.approx(np.linalg.norm(h0), rel=0.25)

    def test_channels_constant_within_a_block(self):
        base = self._base()
        # ρ = exp(−0.5) per block, as with 50 Hz over 10 ms blocks.
        model = MobilityModel(drift_rate_hz=0.5 / COHERENCE_S)
        traj = ChannelTrajectory(base, model, np.random.default_rng(4))
        c = COHERENCE_S
        assert np.array_equal(traj.channels_at(1.01 * c), traj.channels_at(1.99 * c))
        assert not np.array_equal(traj.channels_at(0.99 * c), traj.channels_at(1.01 * c))

    def test_out_of_order_queries_consistent(self):
        """Lazily extended blocks must not depend on query order."""
        base = self._base()
        model = MobilityModel(drift_rate_hz=10.0)
        forward = ChannelTrajectory(base, model, np.random.default_rng(5))
        h_at_30 = forward.channels_at(0.03).copy()
        jumpy = ChannelTrajectory(base, model, np.random.default_rng(5))
        jumpy.channels_at(0.07)
        assert np.array_equal(jumpy.channels_at(0.03), h_at_30)

    def test_departures_and_late_arrivals(self):
        base = self._base(n=300)
        model = MobilityModel(departure_rate_hz=5.0, late_arrival_fraction=0.4)
        traj = ChannelTrajectory(base, model, np.random.default_rng(6))
        at_start = traj.active_at(0.0)
        # Roughly the late fraction is absent at t=0...
        assert 0.25 < 1.0 - at_start.mean() < 0.55
        # ...and departures thin the field over time.
        assert traj.active_at(1.0).mean() < 0.05
        assert (traj.departures > traj.arrivals).all()

    def test_explicit_schedules_override(self):
        base = self._base(n=3)
        traj = ChannelTrajectory(
            base,
            MobilityModel(departure_rate_hz=100.0),
            np.random.default_rng(7),
            arrivals=[0.0, 0.5, 0.0],
            departures=[0.25, np.inf, np.inf],
        )
        assert list(traj.active_at(0.0)) == [True, False, True]
        assert list(traj.active_at(0.3)) == [False, False, True]
        assert list(traj.active_at(0.6)) == [False, True, True]

    def test_negative_time_rejected(self):
        traj = ChannelTrajectory(self._base(), MobilityModel(), np.random.default_rng(8))
        with pytest.raises(ValueError):
            traj.channels_at(-0.1)
        with pytest.raises(ValueError):
            traj.correlation(-0.1)

    def test_model_correlation_tracks_empirical_decay(self):
        """correlation(t) = ρ^blocks is the analytic envelope the empirical
        draw follows (within sampling noise on a large population)."""
        base = self._base(n=500)
        model = MobilityModel(drift_rate_hz=15.0)
        traj = ChannelTrajectory(base, model, np.random.default_rng(9))
        assert traj.correlation(0.0) == 1.0
        assert traj.correlation(0.1) < traj.correlation(0.02) < 1.0
        rho = np.exp(-15.0 * COHERENCE_S)
        t = 10.5 * COHERENCE_S  # inside block 10
        assert traj.correlation(t) == pytest.approx(rho ** 10)
        h0, h = traj.channels_at(0.0), traj.channels_at(t)
        empirical = abs(np.vdot(h0, h)) / (np.linalg.norm(h0) * np.linalg.norm(h))
        assert empirical == pytest.approx(traj.correlation(t), abs=0.15)
