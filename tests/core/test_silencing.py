"""Tests for repro.core.silencing — the §8.2 ACK-silencing variant."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.core.identification import ChannelEstimates
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import oracle_id_space, run_rateless_uplink
from repro.core.silencing import ack_duration_s, run_rateless_with_silencing
from repro.engine import session as session_module
from repro.engine.session import SessionPipeline
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel

MODEL = ChannelModel(mean_snr_db=24.0, near_far_db=8.0, noise_std=0.1)


def _population(k, seed):
    pop = make_population(k, np.random.default_rng(seed), channel_model=MODEL,
                          message_bits=24)
    rng = np.random.default_rng(seed + 99)
    for tag in pop.tags:
        tag.draw_temp_id(10 * k * k, rng)
    return pop


class TestAckDuration:
    def test_positive_and_grows_with_space(self):
        assert ack_duration_s(64) > 0
        assert ack_duration_s(1 << 16) > ack_duration_s(64)


class TestSilencedRun:
    def test_all_delivered_correctly(self):
        pop = _population(8, 0)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_with_silencing(pop.tags, fe, np.random.default_rng(0))
        assert result.decoded_mask.all()
        assert result.bit_errors == 0
        assert np.array_equal(result.messages, pop.messages)

    def test_ack_overhead_accounted(self):
        pop = _population(8, 1)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_with_silencing(pop.tags, fe, np.random.default_rng(1))
        assert result.ack_overhead_s > 0
        # Duration must include the overhead on top of the airtime.
        airtime = result.slots_used * pop.tags[0].message.size / 80_000.0
        assert result.duration_s > airtime + result.ack_overhead_s * 0.99

    def test_silencing_reduces_transmissions(self):
        """Decoded-then-silenced tags must transmit less than in the plain
        protocol on the same population and noise stream."""
        pop = _population(10, 2)
        fe = ReaderFrontEnd(noise_std=0.1)
        plain = run_rateless_uplink(pop.tags, fe, np.random.default_rng(7))
        silenced = run_rateless_with_silencing(pop.tags, fe, np.random.default_rng(7))
        assert silenced.transmissions.sum() <= plain.transmissions.sum()

    def test_empty_population_rejected(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        with pytest.raises(ValueError):
            run_rateless_with_silencing([], fe, np.random.default_rng(0))

    def test_max_slots_respected(self):
        pop = _population(4, 3)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_with_silencing(
            pop.tags, fe, np.random.default_rng(3), max_slots=3
        )
        assert result.slots_used <= 3


def _segment(tags, fe, rng, recovered, **kwargs):
    """A static silenced session segment over the ``recovered`` tags' view."""
    estimates = ChannelEstimates(
        [t.temp_id for t in recovered], [t.channel for t in recovered]
    )
    kwargs.setdefault("max_slots", BuzzConfig().max_data_slots(len(recovered)))
    return run_mobile_data_segment(
        tags, fe, rng, estimates=estimates, trajectory=None,
        participants=np.ones(len(tags), dtype=bool), start_s=0.0,
        k_hat=len(recovered), ack_s=ack_duration_s(oracle_id_space(len(tags))),
        **kwargs,
    )


class TestSilencedDecoderView:
    """The non-oracle reader view a silenced session's data phase runs on."""

    def test_identity_view_matches_default_path(self):
        pop = _population(6, 5)
        # The view lists the recovered ids in order; so do the tags here,
        # so decoder column i serves tag i on both paths.
        tags = sorted(pop.tags, key=lambda t: t.temp_id)
        fe = ReaderFrontEnd(noise_std=0.1)
        baseline = run_rateless_with_silencing(tags, fe, np.random.default_rng(3))
        viewed = _segment(tags, fe, np.random.default_rng(3), tags)
        assert np.array_equal(baseline.decoded_mask, viewed.decoded_mask)
        assert np.array_equal(baseline.messages, viewed.messages)
        assert baseline.slots_used == viewed.slots_used
        assert baseline.duration_s == viewed.duration_s
        assert baseline.ack_overhead_s == viewed.ack_overhead_s
        assert np.array_equal(baseline.transmissions, viewed.transmissions)

    def test_missing_id_counts_as_loss_and_keeps_transmitting(self):
        """An unrecovered tag never hears its ACK, so it transmits to the
        end and its message is lost."""
        pop = _population(5, 6)
        fe = ReaderFrontEnd(noise_std=0.1)
        recovered = pop.tags[:-1]
        result = _segment(
            pop.tags, fe, np.random.default_rng(4), recovered, max_slots=60
        )
        assert not result.decoded_mask[-1]
        assert result.message_loss >= 1
        # The orphan tag was never silenced: it transmitted in roughly
        # density × slots of the run, not zero.
        assert result.transmissions[-1] > 0

    def test_empty_view_loses_everything_immediately(self, monkeypatch):
        """A silenced session that recovers nobody opens no data phase: it
        sends the trigger, loses every message and ACKs nobody."""
        pop = _population(4, 7)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = _segment(pop.tags, fe, np.random.default_rng(5), [])
        assert result.slots_used == 0
        assert result.duration_s == GEN2_DEFAULT_TIMING.query_duration_s()
        assert result.message_loss == 4
        assert not result.decoded_mask.any()
        assert result.ack_overhead_s == 0

        def recover_nobody(tags, front_end, rng, config):
            return SimpleNamespace(
                duration_s=0.0,
                attempts=1,
                transmissions=np.zeros(len(tags), dtype=int),
                estimates=ChannelEstimates([], []),
                recovered_ids=np.zeros(0, dtype=int),
                k_estimate=SimpleNamespace(k_hat=0),
            )

        monkeypatch.setattr(session_module, "identify", recover_nobody)
        session = SessionPipeline("silenced-e2e", silencing=True).run(
            pop, fe, np.random.default_rng(5), BuzzConfig()
        )
        assert session.slots_used == 0
        assert session.message_loss == 4
        assert session.data_s == GEN2_DEFAULT_TIMING.query_duration_s()
        assert session.transmissions.sum() == 0
