"""Tests for repro.nodes.population."""

import numpy as np
import pytest

from repro.coding.crc import CRC5_GEN2, crc_check
from repro.nodes.population import make_population
from repro.phy.channel import ChannelModel


class TestMakePopulation:
    def test_size_and_channels(self):
        pop = make_population(8, np.random.default_rng(0))
        assert len(pop) == 8
        assert pop.channels.shape == (8,)

    def test_messages_carry_valid_crc(self):
        pop = make_population(4, np.random.default_rng(1), message_bits=32)
        for tag in pop.tags:
            assert tag.message.size == 37
            assert crc_check(tag.message, CRC5_GEN2)

    def test_global_ids_distinct(self):
        pop = make_population(64, np.random.default_rng(3))
        assert len(set(pop.global_ids)) == 64

    def test_explicit_channels_used(self):
        channels = np.array([1.0, 2.0j, 0.5])
        pop = make_population(3, np.random.default_rng(4), channels=channels)
        assert np.allclose(pop.channels, channels)

    def test_channel_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_population(3, np.random.default_rng(5), channels=np.ones(2))

    def test_temp_ids_raise_until_drawn(self):
        pop = make_population(2, np.random.default_rng(7))
        with pytest.raises(RuntimeError):
            _ = pop.temp_ids

    def test_snrs_match_channel_model(self):
        model = ChannelModel(mean_snr_db=20.0, near_far_db=0.0, rician_k_db=40.0, noise_std=0.1)
        pop = make_population(200, np.random.default_rng(8), channel_model=model)
        assert abs(np.mean(pop.snrs_db()) - 20.0) < 1.0

    def test_messages_matrix_shape(self):
        pop = make_population(5, np.random.default_rng(9), message_bits=16)
        assert pop.messages.shape == (5, 21)
