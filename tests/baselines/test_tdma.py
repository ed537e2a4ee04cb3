"""Tests for repro.baselines.tdma."""

import numpy as np
import pytest

from repro.baselines.tdma import run_tdma_uplink
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel

GOOD = ChannelModel(mean_snr_db=22.0, near_far_db=8.0, noise_std=0.1)


def _population(k, seed, model=GOOD):
    return make_population(k, np.random.default_rng(seed), channel_model=model,
                           message_bits=24)


class TestTdma:
    def test_good_channels_all_delivered(self):
        pop = _population(8, 0)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_tdma_uplink(pop.tags, fe, np.random.default_rng(0))
        assert result.decoded_mask.all()
        assert result.bit_errors == 0
        assert np.array_equal(result.messages, pop.messages)

    def test_duration_is_linear_in_k(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        d4 = run_tdma_uplink(_population(4, 1).tags, fe, np.random.default_rng(1)).duration_s
        d8 = run_tdma_uplink(_population(8, 2).tags, fe, np.random.default_rng(2)).duration_s
        # Strip the constant query overhead before comparing slopes.
        from repro.gen2.timing import GEN2_DEFAULT_TIMING

        overhead = GEN2_DEFAULT_TIMING.query_duration_s()
        assert (d8 - overhead) == pytest.approx(2 * (d4 - overhead), rel=0.01)

    def test_rate_pinned_at_one(self):
        pop = _population(4, 3)
        fe = ReaderFrontEnd(noise_std=0.1)
        assert run_tdma_uplink(pop.tags, fe, np.random.default_rng(3)).bits_per_symbol() == 1.0

    def test_bad_channels_lose_messages(self):
        model = ChannelModel(mean_snr_db=-2.0, near_far_db=4.0, noise_std=0.1)
        losses = 0
        for seed in range(6):
            pop = _population(4, 100 + seed, model=model)
            fe = ReaderFrontEnd(noise_std=0.1)
            losses += run_tdma_uplink(pop.tags, fe, np.random.default_rng(seed)).message_loss
        assert losses > 0

    def test_miller_m_increases_robustness(self):
        """Miller-8's matched filter must beat Miller-2 at low SNR."""
        model = ChannelModel(mean_snr_db=2.0, near_far_db=2.0, noise_std=0.1)
        errors = {}
        for m in (2, 8):
            total = 0
            for seed in range(6):
                pop = _population(6, 200 + seed, model=model)
                fe = ReaderFrontEnd(noise_std=0.1)
                total += run_tdma_uplink(
                    pop.tags, fe, np.random.default_rng(seed), miller_m=m
                ).bit_errors
            errors[m] = total
        assert errors[8] < errors[2]

    def test_empty_population_rejected(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        with pytest.raises(ValueError):
            run_tdma_uplink([], fe, np.random.default_rng(0))
