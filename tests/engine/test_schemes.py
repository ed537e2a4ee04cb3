"""Tests for repro.engine.schemes — the unified scheme interface."""

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.engine.campaign import CampaignCell, CampaignSpec, run_cell
from repro.engine.schemes import (
    CdmaScheme,
    RatelessScheme,
    SchemeRun,
    SilencedScheme,
    TdmaScheme,
    UplinkScheme,
    available_schemes,
    get_scheme,
    register_scheme,
)
from repro.network.scenarios import default_uplink_scenario
from repro.nodes.reader import ReaderFrontEnd
from repro.utils.rng import SeedSequenceFactory


def _location(n_tags=4, seed=3):
    seeds = SeedSequenceFactory(seed)
    population = default_uplink_scenario(n_tags).draw_population(seeds.stream("location", 0))
    return population, ReaderFrontEnd(noise_std=population.noise_std)


class TestRegistry:
    def test_builtin_schemes_registered(self):
        assert set(available_schemes()) >= {"buzz", "tdma", "cdma", "silenced"}

    def test_get_scheme_returns_protocol_instances(self):
        for name in ("buzz", "tdma", "cdma", "silenced"):
            assert isinstance(get_scheme(name), UplinkScheme)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            get_scheme("aloha")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(TdmaScheme())

    def test_replace_allows_reregistration(self):
        original = get_scheme("tdma")
        try:
            replacement = TdmaScheme()
            assert register_scheme(replacement, replace=True) is replacement
            assert get_scheme("tdma") is replacement
        finally:
            register_scheme(original, replace=True)

    def test_nameless_scheme_rejected(self):
        class Broken:
            name = ""

        with pytest.raises(ValueError, match="non-empty"):
            register_scheme(Broken())


class TestSchemeAdapters:
    @pytest.mark.parametrize("name", available_schemes())
    def test_unified_result_shape(self, name):
        """Every registered scheme yields one SchemeRun that ``run_cell``
        places in the grid and that survives the JSON record unchanged."""
        spec = CampaignSpec(
            scenario=default_uplink_scenario(3),
            root_seed=3,
            n_locations=2,
            n_traces=2,
            schemes=(name,),
            config=BuzzConfig(bp_restarts=0),
        )
        cell = CampaignCell(location=1, trace=1, scheme=name)
        run = run_cell(spec, cell)
        assert isinstance(run, SchemeRun)
        assert (run.scheme, run.location, run.trace) == (
            cell.scheme,
            cell.location,
            cell.trace,
        )
        assert run.n_tags == 3
        assert run.duration_s > 0
        assert run.slots_used > 0
        assert run.transmissions.shape == (3,)
        assert 0 <= run.message_loss <= 3
        record = run.to_dict()
        assert SchemeRun.from_dict(record).to_dict() == record

    def test_scheme_returns_an_unplaced_run(self):
        population, front_end = _location()
        run = TdmaScheme().run(
            population, front_end, np.random.default_rng(0), config=BuzzConfig()
        )
        assert (run.location, run.trace) == (None, None)

    def test_tdma_slots_used_is_population_size(self):
        population, front_end = _location(n_tags=5, seed=8)
        result = TdmaScheme().run(
            population, front_end, np.random.default_rng(0), config=BuzzConfig()
        )
        assert result.slots_used == 5
        assert result.bits_per_symbol == 1.0

    def test_cdma_slots_used_is_spreading_factor(self):
        population, front_end = _location(n_tags=5, seed=8)
        result = CdmaScheme().run(
            population, front_end, np.random.default_rng(0), config=BuzzConfig()
        )
        assert result.slots_used == 8  # next power of two above 5

    def test_buzz_draws_fresh_temp_ids(self):
        population, front_end = _location()
        RatelessScheme().run(
            population, front_end, np.random.default_rng(1), config=BuzzConfig()
        )
        assert all(t.temp_id is not None for t in population.tags)

    def test_buzz_respects_max_slots(self):
        population, front_end = _location()
        result = RatelessScheme().run(
            population,
            front_end,
            np.random.default_rng(1),
            config=BuzzConfig(),
            max_slots=2,
        )
        assert result.slots_used <= 2

    def test_silenced_folds_ack_overhead_into_duration(self):
        """On the same location and run stream, the silenced variant's
        duration must exceed pure airtime: the ACKs are priced in."""
        population, front_end = _location(n_tags=6, seed=4)
        result = SilencedScheme().run(
            population, front_end, np.random.default_rng(9), config=BuzzConfig()
        )
        p_bits = population.messages.shape[1]
        airtime = result.slots_used * p_bits / 80_000.0
        assert result.message_loss == 0
        assert result.duration_s > airtime

    def test_silenced_saves_transmissions_vs_buzz(self):
        """Silencing's whole point: ACKed tags stop transmitting, so the
        total transmission count never exceeds plain Buzz's on the same
        draw."""
        pop_a, fe_a = _location(n_tags=8, seed=6)
        pop_b, fe_b = _location(n_tags=8, seed=6)
        buzz = RatelessScheme().run(
            pop_a, fe_a, np.random.default_rng(11), config=BuzzConfig()
        )
        silenced = SilencedScheme().run(
            pop_b, fe_b, np.random.default_rng(11), config=BuzzConfig()
        )
        assert silenced.transmissions.sum() <= buzz.transmissions.sum()

    def test_silenced_respects_max_slots(self):
        population, front_end = _location()
        result = SilencedScheme().run(
            population,
            front_end,
            np.random.default_rng(1),
            config=BuzzConfig(),
            max_slots=2,
        )
        assert result.slots_used <= 2
