"""Cross-module integration tests: the full Buzz pipeline on the simulated PHY."""

import numpy as np
import pytest

from repro.baselines.cdma import run_cdma_uplink
from repro.baselines.tdma import run_tdma_uplink
from repro.core.buzz import BuzzSystem
from repro.core.config import BuzzConfig
from repro.network.scenarios import default_uplink_scenario, shopping_cart_scenario
from repro.nodes.reader import ReaderFrontEnd


class TestEventDrivenPipeline:
    """The §4a mode: identification then data, like the shopping cart."""

    def test_shopping_cart_interaction(self):
        scenario = shopping_cart_scenario(n_items_in_cart=10, message_bits=32)
        pop = scenario.draw_population(np.random.default_rng(1))
        system = BuzzSystem(front_end=ReaderFrontEnd(noise_std=pop.noise_std))
        result = system.run(pop.tags, np.random.default_rng(2))
        assert result.identification.slots_used > 0
        if result.identification.exact:
            assert result.data.decoded_mask.all()
            assert np.array_equal(result.data.messages, pop.messages)

    def test_interaction_beats_gen2_end_to_end(self):
        """Identification + data with Buzz must be faster than FSA + TDMA
        on the same population (the 3.5× headline's direction)."""
        from repro.gen2 import FsaConfig, run_fsa_inventory

        scenario = default_uplink_scenario(8)
        pop = scenario.draw_population(np.random.default_rng(3))
        fe = ReaderFrontEnd(noise_std=pop.noise_std)
        rng = np.random.default_rng(4)

        buzz = BuzzSystem(front_end=fe).run(pop.tags, rng)
        fsa = run_fsa_inventory(FsaConfig(n_tags=8), rng)
        tdma = run_tdma_uplink(pop.tags, fe, rng)
        gen2_total = fsa.total_time_s + tdma.duration_s
        assert buzz.total_duration_s < gen2_total

    def test_all_three_schemes_on_same_population(self):
        scenario = default_uplink_scenario(8)
        pop = scenario.draw_population(np.random.default_rng(5))
        fe = ReaderFrontEnd(noise_std=pop.noise_std)
        rng = np.random.default_rng(6)
        for tag in pop.tags:
            tag.draw_temp_id(640, rng)

        buzz = BuzzSystem(front_end=fe).run_data_phase(pop.tags, rng)
        tdma = run_tdma_uplink(pop.tags, fe, rng)
        cdma = run_cdma_uplink(pop.tags, fe, rng)
        assert buzz.message_loss <= tdma.message_loss + cdma.message_loss
        assert buzz.duration_s < max(tdma.duration_s, cdma.duration_s) * 1.5


class TestConfigPropagation:
    def test_custom_config_respected_end_to_end(self):
        scenario = default_uplink_scenario(4)
        pop = scenario.draw_population(np.random.default_rng(7))
        config = BuzzConfig(slots_per_step=8, density_colliders=3.0)
        system = BuzzSystem(
            front_end=ReaderFrontEnd(noise_std=pop.noise_std), config=config
        )
        result = system.run(pop.tags, np.random.default_rng(8))
        assert result.identification.k_estimate.slots_used % 8 == 0


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        def one_run():
            scenario = default_uplink_scenario(6)
            pop = scenario.draw_population(np.random.default_rng(11))
            system = BuzzSystem(front_end=ReaderFrontEnd(noise_std=pop.noise_std))
            return system.run(pop.tags, np.random.default_rng(12))

        a, b = one_run(), one_run()
        assert a.total_duration_s == b.total_duration_s
        assert np.array_equal(a.data.messages, b.data.messages)
