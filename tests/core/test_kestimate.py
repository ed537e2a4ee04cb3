"""Tests for repro.core.kestimate — Stage-1 K estimation."""

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.core.kestimate import EMPTY_THRESHOLD, estimate_k, kest_transmit_matrix
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel

MODEL = ChannelModel(mean_snr_db=22.0, near_far_db=8.0, noise_std=0.1)


def _setup(k, seed):
    pop = make_population(k, np.random.default_rng(seed), channel_model=MODEL)
    return pop.tags, ReaderFrontEnd(noise_std=0.1)


class TestTransmitMatrix:
    def test_shape(self):
        tags, _ = _setup(5, 0)
        m = kest_transmit_matrix(tags, step=1, slots_per_step=4)
        assert m.shape == (4, 5)

    def test_probability_halves_per_step(self):
        tags, _ = _setup(40, 1)
        rates = []
        for step in (1, 2, 3):
            m = kest_transmit_matrix(tags, step, slots_per_step=200)
            rates.append(m.mean())
        assert rates[0] == pytest.approx(0.5, abs=0.05)
        assert rates[1] == pytest.approx(0.25, abs=0.04)
        assert rates[2] == pytest.approx(0.125, abs=0.03)

    def test_deterministic_per_session(self):
        tags, _ = _setup(5, 2)
        a = kest_transmit_matrix(tags, 1, 4, session=0)
        b = kest_transmit_matrix(tags, 1, 4, session=0)
        assert np.array_equal(a, b)

    def test_sessions_differ(self):
        tags, _ = _setup(5, 3)
        a = kest_transmit_matrix(tags, 1, 16, session=0)
        b = kest_transmit_matrix(tags, 1, 16, session=1)
        assert not np.array_equal(a, b)


class TestEstimateK:
    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32])
    def test_unbiased_within_factor_two(self, k):
        """With s = 4 the estimate is coarse (Lemma 5.1 needs larger s for
        tight ε); require the *average* over trials to land within ±50 %."""
        estimates = []
        for trial in range(30):
            tags, fe = _setup(k, 100 + trial)
            result = estimate_k(tags, fe, np.random.default_rng(trial))
            estimates.append(result.k_hat)
        assert 0.5 * k <= np.mean(estimates) <= 1.7 * k

    def test_steps_scale_logarithmically(self):
        """j* should be ≈ log2 K + O(1) (paper Lemma 5.1)."""
        mean_steps = {}
        for k in (4, 32):
            steps = []
            for trial in range(20):
                tags, fe = _setup(k, 200 + trial)
                steps.append(estimate_k(tags, fe, np.random.default_rng(trial)).steps_used)
            mean_steps[k] = np.mean(steps)
        assert mean_steps[32] > mean_steps[4]
        assert mean_steps[32] - mean_steps[4] == pytest.approx(3.0, abs=1.5)

    def test_slots_used_consistent(self):
        tags, fe = _setup(8, 4)
        cfg = BuzzConfig()
        result = estimate_k(tags, fe, np.random.default_rng(0), cfg)
        assert result.slots_used == cfg.slots_per_step * result.steps_used
        assert len(result.empty_fractions) == result.steps_used

    def test_empty_fraction_terminates_above_threshold(self):
        tags, fe = _setup(8, 5)
        cfg = BuzzConfig()
        result = estimate_k(tags, fe, np.random.default_rng(1), cfg)
        assert result.empty_fractions[-1] >= EMPTY_THRESHOLD

    def test_empty_population(self):
        _, fe = _setup(1, 6)
        result = estimate_k([], fe, np.random.default_rng(2))
        assert result.k_hat <= 1

    def test_larger_s_tightens_estimate(self):
        """Lemma 5.1: estimator variance shrinks as s grows."""
        def spread(s):
            cfg = BuzzConfig(slots_per_step=s)
            estimates = []
            for trial in range(25):
                tags, fe = _setup(16, 300 + trial)
                estimates.append(
                    estimate_k(tags, fe, np.random.default_rng(trial), cfg).k_hat
                )
            return np.std(estimates)

        assert spread(32) < spread(4)
