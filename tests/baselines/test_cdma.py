"""Tests for repro.baselines.cdma."""

import numpy as np
import pytest

from repro.baselines.cdma import run_cdma_uplink
from repro.baselines.tdma import run_tdma_uplink
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel

STRONG = ChannelModel(mean_snr_db=26.0, near_far_db=4.0, noise_std=0.1)


def _population(k, seed, model=STRONG):
    return make_population(k, np.random.default_rng(seed), channel_model=model,
                           message_bits=24)


class TestCdma:
    def test_strong_channels_mostly_delivered(self):
        pop = _population(4, 0)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_cdma_uplink(pop.tags, fe, np.random.default_rng(0))
        assert result.n_decoded >= 3

    def test_spreading_factor_power_of_two(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        for k, expected in ((4, 4), (8, 8), (12, 16), (16, 16)):
            pop = _population(k, k)
            result = run_cdma_uplink(pop.tags, fe, np.random.default_rng(k))
            assert result.spreading_factor == expected

    def test_k12_duration_matches_k16(self):
        """The paper's Fig. 10 bump: K = 12 is forced onto Walsh-16 and
        pays the same airtime as K = 16."""
        fe = ReaderFrontEnd(noise_std=0.1)
        d12 = run_cdma_uplink(_population(12, 1).tags, fe, np.random.default_rng(1)).duration_s
        d16 = run_cdma_uplink(_population(16, 2).tags, fe, np.random.default_rng(2)).duration_s
        assert d12 == pytest.approx(d16)

    def test_duration_is_gen2_airtime(self):
        """P bits of N chips each at the Gen-2 uplink rate, plus the Query."""
        pop = _population(12, 3)
        result = run_cdma_uplink(pop.tags, ReaderFrontEnd(noise_std=0.1), np.random.default_rng(3))
        p_bits, n = pop.messages.shape[1], result.spreading_factor
        chip_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps
        assert result.duration_s == p_bits * n * chip_s + GEN2_DEFAULT_TIMING.query_duration_s()

    def test_rate_at_most_one(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        for k in (4, 12):
            pop = _population(k, 10 + k)
            result = run_cdma_uplink(pop.tags, fe, np.random.default_rng(k))
            assert result.bits_per_symbol() <= 1.0

    def test_less_reliable_than_tdma_under_stress(self):
        """The paper's central baseline contrast (Figs. 11/12): on-off CDMA
        degrades before Miller-4 TDMA as channels worsen."""
        model = ChannelModel(mean_snr_db=10.0, near_far_db=16.0, noise_std=0.1)
        cdma_loss = tdma_loss = 0
        for seed in range(8):
            pop = _population(8, 300 + seed, model=model)
            fe = ReaderFrontEnd(noise_std=0.1)
            cdma_loss += run_cdma_uplink(pop.tags, fe, np.random.default_rng(seed)).message_loss
            tdma_loss += run_tdma_uplink(pop.tags, fe, np.random.default_rng(seed)).message_loss
        assert cdma_loss > tdma_loss

    def test_row_zero_tag_suffers_mai(self):
        """The all-ones Walsh row has no interference cancellation; with
        several strong interferers its tag should fail far more often than
        the zero-mean rows' tags."""
        rng = np.random.default_rng(5)
        fails_row0 = fails_rest = 0
        trials = 12
        for seed in range(trials):
            pop = _population(8, 400 + seed)
            fe = ReaderFrontEnd(noise_std=0.1)
            result = run_cdma_uplink(pop.tags, fe, np.random.default_rng(seed))
            fails_row0 += int(not result.decoded_mask[0])
            fails_rest += int((~result.decoded_mask[1:]).sum())
        assert fails_row0 / trials > fails_rest / (7 * trials)

    def test_loss_grows_with_near_far(self):
        losses = {}
        for nf in (2.0, 24.0):
            model = ChannelModel(mean_snr_db=14.0, near_far_db=nf, noise_std=0.1)
            total = 0
            for seed in range(8):
                pop = _population(8, 500 + seed, model=model)
                fe = ReaderFrontEnd(noise_std=0.1)
                total += run_cdma_uplink(
                    pop.tags, fe, np.random.default_rng(seed)
                ).message_loss
            losses[nf] = total
        assert losses[24.0] > losses[2.0]

    def test_empty_population_rejected(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        with pytest.raises(ValueError):
            run_cdma_uplink([], fe, np.random.default_rng(0))
