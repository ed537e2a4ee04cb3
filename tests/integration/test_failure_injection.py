"""Failure-injection tests.

The paper (§6d) claims graceful degradation: "If a backscatter node runs
out of power in the middle of the data collection phase, its impact on the
other nodes will be minimal... already-decoded nodes are unaffected; its
influence translates to additional noise." These tests inject exactly such
faults and verify the claims hold for this implementation.
"""

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.core.rateless import RatelessDecoder
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel

MODEL = ChannelModel(mean_snr_db=24.0, near_far_db=8.0, noise_std=0.1)


def _run_with_death(k, death_slot, seed, max_slots=60):
    """Run the rateless phase with one tag dying at ``death_slot``.

    The *reader* still believes the dead tag participates per its PRNG
    (exactly the paper's scenario: D says transmit, the air says silence).
    Returns (decoder, population, dead_index).
    """
    pop = make_population(k, np.random.default_rng(seed), channel_model=MODEL,
                          message_bits=24)
    rng = np.random.default_rng(seed + 7)
    for tag in pop.tags:
        tag.draw_temp_id(10 * k * k, rng)
    fe = ReaderFrontEnd(noise_std=0.1)
    cfg = BuzzConfig()
    density = cfg.data_density(k)
    messages = pop.messages
    dead = 0  # kill the first tag

    decoder = RatelessDecoder(
        seeds=[t.temp_id for t in pop.tags],
        channels=pop.channels,
        n_positions=messages.shape[1],
        density=density,
        config=cfg,
        rng=np.random.default_rng(seed + 13),
        noise_std=0.1,
    )
    for slot in range(max_slots):
        row = np.array(
            [1 if t.data_transmits(slot, density) else 0 for t in pop.tags],
            dtype=np.uint8,
        )
        actual = row.copy()
        if slot >= death_slot:
            actual[dead] = 0  # the tag is dead on the air
        tx = (messages * actual[:, None]).T
        symbols = fe.observe(tx, pop.channels, rng)
        # The reader regenerates the *intended* row.
        decoder.add_slot(symbols, decoder.expected_rows([slot])[0])
        decoder.try_decode()
        alive_decoded = decoder.decoded_mask.copy()
        alive_decoded[dead] = True
        if alive_decoded.all():
            break
    return decoder, pop, dead


class TestDeadTag:
    def test_survivors_still_decode(self):
        decoder, pop, dead = _run_with_death(k=8, death_slot=2, seed=0)
        mask = decoder.decoded_mask
        survivors = [i for i in range(8) if i != dead]
        assert sum(mask[i] for i in survivors) >= len(survivors) - 1

    def test_survivor_messages_correct(self):
        decoder, pop, dead = _run_with_death(k=8, death_slot=2, seed=1)
        est = decoder.messages()
        for i in range(8):
            if i != dead and decoder.decoded_mask[i]:
                assert np.array_equal(est[i], pop.messages[i])

    def test_already_decoded_unaffected(self):
        """Tags frozen before the death must stay frozen and correct."""
        decoder, pop, dead = _run_with_death(k=8, death_slot=6, seed=2)
        est = decoder.messages()
        for i in np.flatnonzero(decoder.decoded_mask):
            if i != dead:
                assert np.array_equal(est[i], pop.messages[i])


class TestChannelEstimateFaults:
    def test_moderate_channel_error_fails_safe(self):
        """ĥ errors within the operating envelope (identification delivers a
        few per cent of amplitude/phase error) must never yield a false
        'delivered' with wrong bits. (Gross model error — tens of degrees
        on every channel — is outside the envelope: there the residual is
        systematically large and only CRC-5's 2⁻⁵ protects, as in the
        paper's own design.)"""
        from repro.core.identification import ChannelEstimates
        from repro.core.mobile import run_mobile_data_segment

        pop = make_population(6, np.random.default_rng(3), channel_model=MODEL,
                              message_bits=24)
        rng = np.random.default_rng(4)
        for tag in pop.tags:
            tag.draw_temp_id(360, rng)
        fe = ReaderFrontEnd(noise_std=0.1)
        bad_estimates = pop.channels * np.exp(1j * 0.12) * 1.04  # ~7°, +4 %
        result = run_mobile_data_segment(
            pop.tags, fe, rng,
            estimates=ChannelEstimates([t.temp_id for t in pop.tags], bad_estimates),
            trajectory=None, participants=np.ones(6, dtype=bool), start_s=0.0,
            k_hat=6, max_slots=40,
        )
        assert result.decoded_mask.any()
        for i in np.flatnonzero(result.decoded_mask):
            assert np.array_equal(result.messages[i], pop.messages[i])


class TestReaderNoiseFloorFault:
    def test_underestimated_noise_does_not_corrupt(self):
        """If the reader's noise_std is off by 2×, verification gates relax
        or tighten — but delivered messages must remain correct."""
        from repro.core.rateless import run_rateless_uplink

        pop = make_population(6, np.random.default_rng(5), channel_model=MODEL,
                              message_bits=24)
        rng = np.random.default_rng(6)
        for tag in pop.tags:
            tag.draw_temp_id(360, rng)
        # Front end believes the noise is half its true value.
        true_noise, believed = 0.1, 0.05
        fe = ReaderFrontEnd(noise_std=believed)

        class _Lying(ReaderFrontEnd):
            def observe(self, tx, channels, rng_):
                from repro.phy.signal import received_symbols

                return received_symbols(tx, channels, noise_std=true_noise, rng=rng_)

        lying = _Lying(noise_std=believed)
        result = run_rateless_uplink(pop.tags, lying, rng, max_slots=40)
        for i in np.flatnonzero(result.decoded_mask):
            assert np.array_equal(result.messages[i], pop.messages[i])


class _ForcedSchedule(object):
    """Mixin factory: adaptive pipeline with pinned departure schedules."""

    @staticmethod
    def pipeline(departures):
        from repro.engine.session import SessionPipeline

        class Forced(SessionPipeline):
            def _make_trajectory(self, population, rng):
                trajectory = super()._make_trajectory(population, rng)
                trajectory.departures[:] = departures
                return trajectory

        return Forced("forced-adaptive", adaptive=True)


class TestMidSessionFade:
    def _run(self, departures, seed=0, k=8):
        from repro.core.config import BuzzConfig
        from repro.network.scenarios import mobile_scenario
        from repro.utils.rng import SeedSequenceFactory

        scenario = mobile_scenario(k, drift_rate_hz=0.5, departure_rate_hz=0.5)
        seeds = SeedSequenceFactory(seed)
        pop = scenario.draw_population(seeds.stream("location", 0))
        fe = ReaderFrontEnd(noise_std=pop.noise_std)
        pipeline = _ForcedSchedule.pipeline(departures)
        return pipeline.run(pop, fe, seeds.stream("run"), config=BuzzConfig()), pop

    def test_total_fade_triggers_one_reidentification_and_terminates(self):
        """Satellite: one tag fades completely just after identification.
        The stall monitor must fire, identification must re-run exactly
        once (the refreshed view excludes the faded tag), and the session
        must terminate well before burning its slot budget."""
        k = 8
        departures = np.full(k, np.inf)
        departures[0] = 0.002  # during identification's tail, before data
        result, pop = self._run(departures, k=k)
        assert result.reidentifications == 1
        assert result.message_loss == 1  # only the faded tag is lost
        # Termination: nowhere near the 25·K abort budget.
        from repro.core.config import BuzzConfig

        assert result.slots_used < BuzzConfig().max_data_slots(k) // 2
        assert result.duration_s == result.identification_s + result.data_s

    def test_all_tags_departing_short_circuits_not_hangs(self):
        """Satellite: churn that removes *every* tag mid-session must end
        with the empty-view short-circuit — one stalled segment, one empty
        re-identification, all messages lost — not a full budget burn."""
        k = 6
        departures = np.full(k, 0.002)  # everyone fades before the data phase
        result, pop = self._run(departures, seed=3, k=k)
        assert result.message_loss == k
        assert result.reidentifications == 1
        # The only data slots spent are the first segment's stall window,
        # far below the 25·K budget a static session would burn.
        from repro.core.config import BuzzConfig

        assert result.slots_used <= 3 * k + 8
        assert result.slots_used < BuzzConfig().max_data_slots(k)
        assert result.duration_s == result.identification_s + result.data_s

    def test_empty_field_at_session_start(self):
        """Nobody present when the reader triggers (every tag arrives late,
        within the arrival window): the session charges one trigger command
        and reports everything lost."""
        from repro.core.config import BuzzConfig
        from repro.engine.schemes import get_scheme
        from repro.network.scenarios import mobile_scenario
        from repro.utils.rng import SeedSequenceFactory

        scenario = mobile_scenario(4, late_arrival_fraction=1.0)
        seeds = SeedSequenceFactory(1)
        pop = scenario.draw_population(seeds.stream("location", 0))
        fe = ReaderFrontEnd(noise_std=pop.noise_std)
        result = get_scheme("buzz-adaptive").run(
            pop, fe, seeds.stream("run"), config=BuzzConfig()
        )
        assert result.message_loss == 4
        assert result.slots_used == 0
        assert result.data_s == 0.0
        assert result.identification_s > 0.0
        assert result.reidentifications == 0
