"""Property-based invariants of the session layer (hypothesis).

Sessions add identification and data phases with float airtime, per-tag
ledgers and a refreshed reader view; these properties pin the algebra
that every figure and cache record relies on, under *randomised*
configurations rather than golden seeds:

* ``duration_s`` is the **exact** float sum ``identification_s + data_s``;
* per-tag transmissions sum across both phases (the data phase's share
  is carried separately for the energy model);
* a decoder view polluted with phantom columns (spurious recovered ids)
  never verifies a phantom — the non-oracle path's safety property;
* on a static field an adaptive session equals its plain end-to-end
  twin field for field: the stall monitor arms only on mobile fields.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import BuzzConfig
from repro.core.rateless import RatelessDecoder
from repro.engine.schemes import get_scheme
from repro.network.scenarios import (
    default_uplink_scenario,
    dense_deployment_scenario,
    mobile_scenario,
)
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel
from repro.utils.rng import SeedSequenceFactory

MODEL = ChannelModel(mean_snr_db=24.0, near_far_db=8.0, noise_std=0.1)


def _run_scheme(scheme_name, scenario, seed):
    seeds = SeedSequenceFactory(seed)
    population = scenario.draw_population(seeds.stream("location", 0))
    front_end = ReaderFrontEnd(noise_std=population.noise_std)
    scheme = get_scheme(scheme_name)
    return scheme.run(
        population, front_end, seeds.stream("trace", 0, 0, scheme_name),
        config=BuzzConfig(),
    )


class TestSessionAlgebra:
    @settings(max_examples=8, deadline=None)
    @given(
        n_tags=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
        scheme=st.sampled_from(["buzz-e2e", "silenced-e2e", "buzz-adaptive"]),
        scenario_kind=st.sampled_from(["default", "dense", "mobile"]),
    )
    def test_duration_decomposes_exactly_and_transmissions_sum(
        self, n_tags, seed, scheme, scenario_kind
    ):
        if scenario_kind == "default":
            scenario = default_uplink_scenario(n_tags)
        elif scenario_kind == "dense":
            scenario = dense_deployment_scenario(n_tags)
        else:
            scenario = mobile_scenario(n_tags, drift_rate_hz=10.0)
        result = _run_scheme(scheme, scenario, seed)

        # Exact float identity, not approximate equality.
        assert result.duration_s == result.identification_s + result.data_s
        assert result.identification_s > 0
        assert result.data_s >= 0
        assert result.retries >= 0

        # The per-tag ledger splits exactly into stages: the recorded
        # data-stage share never exceeds the session total, and the
        # remainder is identification reflections.
        assert result.data_transmissions is not None
        total = np.asarray(result.transmissions)
        data = np.asarray(result.data_transmissions)
        assert total.shape == data.shape == (n_tags,)
        assert (data >= 0).all()
        assert (total - data >= 0).all()
        if scenario.mobility is None:
            # Every tag participates in a static identification: at least
            # its one Stage-2 bucket reflection lands in the ledger.
            assert (total - data >= 1).all()


class TestPhantomColumns:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_phantoms=st.integers(min_value=1, max_value=3),
    )
    def test_phantom_columns_never_verify(self, seed, n_phantoms):
        """Spurious recovered ids become decoder columns with no tag on the
        air behind them; whatever the noise does, the verification rule
        must never freeze one."""
        k = 5
        rng = np.random.default_rng(seed)
        pop = make_population(k, rng, channel_model=MODEL, message_bits=24)
        id_space = 10 * k * k
        for tag in pop.tags:
            tag.draw_temp_id(id_space, rng)
        true_seeds = [t.temp_id for t in pop.tags]
        phantom_seeds = []
        while len(phantom_seeds) < n_phantoms:
            candidate = int(rng.integers(id_space, 2 * id_space))
            if candidate not in true_seeds and candidate not in phantom_seeds:
                phantom_seeds.append(candidate)
        view_seeds = true_seeds + phantom_seeds
        # Phantom "estimates" look like plausible channels.
        phantom_h = MODEL.sample(n_phantoms, rng)
        view_h = np.concatenate([pop.channels, phantom_h])

        config = BuzzConfig()
        density = config.data_density(len(view_seeds))
        fe = ReaderFrontEnd(noise_std=0.1)
        decoder = RatelessDecoder(
            seeds=view_seeds,
            channels=view_h,
            n_positions=pop.messages.shape[1],
            density=density,
            config=config,
            rng=np.random.default_rng(seed + 1),
            noise_std=0.1,
        )
        messages = pop.messages
        phantom_idx = np.arange(k, k + n_phantoms)
        for slot in range(40):
            row = np.array(
                [1 if t.data_transmits(slot, density) else 0 for t in pop.tags],
                dtype=np.uint8,
            )
            tx = (messages * row[:, None]).T
            symbols = fe.observe(tx, pop.channels, rng)
            decoder.add_slot(symbols, decoder.expected_rows([slot])[0])
            decoder.try_decode()
            assert not decoder.decoded_mask[phantom_idx].any(), (
                f"phantom column verified at slot {slot}"
            )
        # Real columns stay reachable despite the pollution (how many decode
        # within 40 slots depends on the draw — near-cancelling pairs can
        # legitimately hold some back), and whatever verified is correct.
        assert decoder.decoded_mask[:k].any()
        est = decoder.messages()
        for i in np.flatnonzero(decoder.decoded_mask[:k]):
            assert np.array_equal(est[i], messages[i])


class TestAdaptiveOnStaticField:
    @settings(max_examples=6, deadline=None)
    @given(
        n_tags=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
        field=st.sampled_from(["dense", "mobile-rates-zero"]),
        pair=st.sampled_from(
            [("buzz-adaptive", "buzz-e2e"), ("silenced-adaptive", "silenced-e2e")]
        ),
    )
    def test_equals_plain_twin(self, n_tags, seed, field, pair):
        """On a static field the stall monitor stays off, so an adaptive
        session consumes the cell generator exactly like its plain twin
        and returns the same record, field for field, scheme name aside."""
        if field == "dense":
            scenario = dense_deployment_scenario(n_tags)
        else:
            scenario = mobile_scenario(n_tags, drift_rate_hz=0.0)
            assert scenario.mobility.is_static
        runs = []
        for name in pair:
            # Fresh state per run: the population draw is re-derived, so tag
            # mutations (temp ids) cannot leak across the two runs.
            seeds = SeedSequenceFactory(seed)
            population = scenario.draw_population(seeds.stream("location", 0))
            front_end = ReaderFrontEnd(noise_std=population.noise_std)
            runs.append(
                get_scheme(name).run(
                    population, front_end, seeds.stream("run"), config=BuzzConfig()
                )
            )
        adaptive, plain = runs
        assert (adaptive.scheme, plain.scheme) == pair
        for f in dataclasses.fields(adaptive):
            if f.name != "scheme":
                a, b = getattr(adaptive, f.name), getattr(plain, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name
        assert adaptive.reidentifications is None
