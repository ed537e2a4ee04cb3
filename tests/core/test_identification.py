"""Tests for repro.core.identification — the three-stage protocol."""

import numpy as np
import pytest

from repro.coding.prng import transmit_pattern_matrix
from repro.core.config import BuzzConfig
from repro.core.identification import (
    MAX_ATTEMPTS,
    candidate_matrix,
    cs_transmit_matrix,
    identify,
)
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import SALT_CSPATTERN
from repro.phy.channel import ChannelModel

MODEL = ChannelModel(mean_snr_db=22.0, near_far_db=10.0, noise_std=0.1)


def _setup(k, seed):
    pop = make_population(k, np.random.default_rng(seed), channel_model=MODEL)
    return pop, ReaderFrontEnd(noise_std=0.1)


def _shrink_id_space(monkeypatch):
    """Draw temporary ids from ``2·K̂`` values, so collisions are near
    certain."""
    monkeypatch.setattr(BuzzConfig, "temp_id_space", lambda self, k_hat: 2 * max(1, k_hat))


class TestMatrices:
    def test_cs_matrix_matches_reader_regeneration(self):
        pop, _ = _setup(5, 0)
        rng = np.random.default_rng(1)
        for tag in pop.tags:
            tag.draw_temp_id(250, rng)
        tx = cs_transmit_matrix(pop.tags, 24)
        regen = candidate_matrix([t.temp_id for t in pop.tags], 24)
        assert np.array_equal(tx, regen)

    def test_candidate_matrix_salt(self):
        a = candidate_matrix([7, 8], 16)
        b = transmit_pattern_matrix([7, 8], 16, p=0.5, salt=SALT_CSPATTERN)
        assert np.array_equal(a, b)


class TestIdentify:
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_mostly_exact(self, k):
        exact = 0
        trials = 8
        for seed in range(trials):
            pop, fe = _setup(k, seed)
            result = identify(pop.tags, fe, np.random.default_rng(seed))
            exact += result.exact
        assert exact >= trials - 1

    def test_channel_estimates_accurate(self):
        pop, fe = _setup(8, 50)
        result = identify(pop.tags, fe, np.random.default_rng(50))
        if not result.exact:
            pytest.skip("identification inexact on this draw")
        for tag in pop.tags:
            estimate = result.estimates.channel_for(int(tag.temp_id))
            assert abs(estimate - tag.channel) < 0.15

    def test_slots_scale_with_k_not_n(self):
        """Identification cost must depend on K, never on the global
        population size — the core complexity claim of §5."""
        slots = {}
        for k in (4, 16):
            counts = []
            for seed in range(6):
                pop, fe = _setup(k, 100 + seed)
                counts.append(identify(pop.tags, fe, np.random.default_rng(seed)).slots_used)
            slots[k] = np.mean(counts)
        assert slots[16] > slots[4]
        assert slots[16] < 12 * slots[4]  # sub-quadratic growth

    def test_duration_is_gen2_airtime(self):
        """One uplink symbol per identification slot, plus the Query."""
        pop, fe = _setup(8, 61)
        result = identify(pop.tags, fe, np.random.default_rng(61))
        assert result.duration_s == (
            result.slots_used * GEN2_DEFAULT_TIMING.uplink_symbol_s()
            + GEN2_DEFAULT_TIMING.query_duration_s()
        )

    def test_duration_much_shorter_than_fsa(self):
        from repro.gen2 import FsaConfig, run_fsa_inventory

        pop, fe = _setup(16, 60)
        rng = np.random.default_rng(60)
        buzz = identify(pop.tags, fe, rng)
        fsa = run_fsa_inventory(FsaConfig(n_tags=16), rng)
        assert fsa.total_time_s / buzz.duration_s > 3.0

    def test_restart_on_duplicate_ids(self, monkeypatch):
        """Force a tiny id space so duplicates are certain; the protocol
        must restart (attempts > 1) rather than return duplicates silently."""
        pop, fe = _setup(8, 70)
        _shrink_id_space(monkeypatch)
        result = identify(pop.tags, fe, np.random.default_rng(70))
        assert result.attempts >= 1
        if result.duplicate_ids:
            assert result.attempts == MAX_ATTEMPTS  # exhausted retries

    def test_exhausted_retries_return_the_last_attempt(self, monkeypatch):
        """An id space of 2·K̂ makes a collision near-certain on every run:
        after its last attempt the protocol still returns that attempt's
        result, duplicates flagged."""
        pop, fe = _setup(16, 71)
        _shrink_id_space(monkeypatch)
        result = identify(pop.tags, fe, np.random.default_rng(71))
        assert result.duplicate_ids and not result.exact
        assert result.attempts == MAX_ATTEMPTS

    def test_recovered_ids_sorted_and_matched(self):
        pop, fe = _setup(8, 80)
        result = identify(pop.tags, fe, np.random.default_rng(80))
        assert np.all(np.diff(result.recovered_ids) > 0)
        assert result.recovered_ids.size == result.channel_estimates.size

    def test_channel_for_unknown_id_raises(self):
        pop, fe = _setup(4, 90)
        result = identify(pop.tags, fe, np.random.default_rng(90))
        with pytest.raises(KeyError):
            result.estimates.channel_for(10**9)

    def test_transmissions_account_every_stage(self):
        """Per-tag counts: ≥ 1 bucket reflection per attempt, plus Stage-1
        and Stage-3 slots — never zero, never more than the slots used."""
        pop, fe = _setup(8, 40)
        result = identify(pop.tags, fe, np.random.default_rng(40))
        assert result.transmissions.shape == (8,)
        assert np.all(result.transmissions >= result.attempts)
        assert np.all(result.transmissions <= result.slots_used)


class TestChannelEstimates:
    def test_estimates_object_mirrors_result(self):
        pop, fe = _setup(6, 50)
        result = identify(pop.tags, fe, np.random.default_rng(50))
        est = result.estimates
        assert len(est) == result.recovered_ids.size
        assert est.seeds() == [int(i) for i in result.recovered_ids]
        for temp_id, channel in zip(est.seeds(), result.channel_estimates):
            assert est.channel_for(temp_id) == channel
            assert temp_id in est
        assert 10**9 not in est

    def test_length_mismatch_rejected(self):
        from repro.core.identification import ChannelEstimates

        with pytest.raises(ValueError):
            ChannelEstimates(ids=np.array([1, 2]), values=np.array([1.0 + 0j]))
