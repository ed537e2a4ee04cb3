"""Multi-reader simulator suite: scheduler, zones, interference, schemes.

The load-bearing property is the campaign engine's determinism contract
extended to event-driven cells: a multi-reader run is a pure function of
its generator, so every executor backend produces byte-identical campaign
results — checked here end to end on a two-portal spec.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.crc import CRC5_GEN2
from repro.core.config import BuzzConfig
from repro.engine import CampaignSpec, run_campaign
from repro.engine.schemes import available_schemes, get_scheme
from repro.network.scenarios import (
    Scenario,
    default_uplink_scenario,
    dense_floor_scenario,
    handoff_scenario,
    multi_reader_scenario,
    scenario_by_name,
    two_portal_scenario,
)
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import COLLISION_MODES, MultiReaderModel, ZoneTrajectory
from repro.sim.interference import TransmissionRecord, resolve_slot
from repro.sim.multireader import simulate_multi_reader
from repro.sim.scheduler import EventScheduler


class TestEventScheduler:
    def test_fires_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.at(0.3, lambda s: fired.append("c"))
        sched.at(0.1, lambda s: fired.append("a"))
        sched.at(0.2, lambda s: fired.append("b"))
        assert sched.run() == pytest.approx(0.3)
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_scheduling_order(self):
        sched = EventScheduler()
        fired = []
        for tag in range(5):
            sched.at(1.0, lambda s, t=tag: fired.append(t))
        sched.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_callbacks_schedule_followups(self):
        sched = EventScheduler()
        ticks = []

        def tick(s):
            ticks.append(s.now)
            if len(ticks) < 3:
                s.after(0.5, tick)

        sched.at(0.0, tick)
        sched.run()
        assert ticks == [0.0, 0.5, 1.0]

    def test_scheduling_into_the_past_raises(self):
        sched = EventScheduler()
        sched.at(1.0, lambda s: s.at(0.5, lambda _: None))
        with pytest.raises(ValueError, match="past"):
            sched.run()

    def test_event_budget_backstop(self):
        sched = EventScheduler()

        def forever(s):
            s.after(0.0, forever)

        sched.at(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            sched.run(max_events=100)


class TestZoneTrajectory:
    def test_static_homes_without_handoff(self):
        model = MultiReaderModel(n_readers=3, handoff_rate_hz=0.0)
        zones = ZoneTrajectory(12, model, np.random.default_rng(0))
        assert np.array_equal(zones.home_at(0.0), zones.home_at(0.9))
        assert zones.handoff_count(1.0) == 0

    def test_coverage_includes_overlap_neighbour(self):
        model = MultiReaderModel(n_readers=2, overlap_fraction=1.0)
        zones = ZoneTrajectory(6, model, np.random.default_rng(1))
        cover = zones.coverage_at(0.0)
        # Full overlap: every tag is covered by both readers.
        assert cover.shape == (2, 6)
        assert cover.all()

    def test_handoffs_advance_homes_on_the_ring(self):
        model = MultiReaderModel(n_readers=4, handoff_rate_hz=50.0)
        zones = ZoneTrajectory(20, model, np.random.default_rng(2), horizon_s=1.0)
        assert zones.handoff_count(1.0) > 0
        early, late = zones.home_at(0.0), zones.home_at(1.0)
        moved = early != late
        assert moved.any()
        # Each hop advances one step on the ring mod R.
        hops = np.array(
            [np.searchsorted(h, 1.0, side="right") for h in zones._handoffs]
        )
        assert np.array_equal((early + hops) % 4, late)

    def test_single_reader_covers_everything(self):
        model = MultiReaderModel(n_readers=1, overlap_fraction=0.9)
        zones = ZoneTrajectory(5, model, np.random.default_rng(3))
        assert zones.coverage_at(0.0).all()
        assert not zones.overlap.any()

    def test_deterministic_given_seed(self):
        model = MultiReaderModel(n_readers=3, handoff_rate_hz=30.0)
        a = ZoneTrajectory(10, model, np.random.default_rng(7))
        b = ZoneTrajectory(10, model, np.random.default_rng(7))
        assert np.array_equal(a.home_at(0.5), b.home_at(0.5))
        assert np.array_equal(a.overlap, b.overlap)


class TestResolveSlot:
    def test_no_interference_is_always_clean(self):
        for mode in COLLISION_MODES:
            verdict = resolve_slot(mode, 1.0, 0.0, 4.0)
            assert verdict.kept and verdict.noise_power == 0.0

    def test_naive_drops_on_any_overlap(self):
        assert not resolve_slot("naive", 100.0, 1e-6, 4.0).kept

    def test_capture_keeps_above_margin_only(self):
        assert resolve_slot("capture", 5.0, 1.0, 4.0).kept
        assert not resolve_slot("capture", 3.0, 1.0, 4.0).kept

    def test_interference_degrades_instead_of_dropping(self):
        verdict = resolve_slot("interference", 1.0, 0.5, 4.0)
        assert verdict.kept and verdict.noise_power == pytest.approx(0.5)
        assert verdict.degraded

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="collision mode"):
            resolve_slot("psychic", 1.0, 1.0, 4.0)

    def test_record_overlap_is_strict(self):
        rec = TransmissionRecord(0, 1.0, 2.0, np.zeros(2))
        assert rec.overlaps(1.5, 2.5)
        assert not rec.overlaps(2.0, 3.0)  # touching endpoints
        assert not rec.overlaps(0.0, 1.0)


def _outcome(scenario, seed=11, **kwargs):
    rng = np.random.default_rng(seed)
    population = scenario.draw_population(rng)
    return simulate_multi_reader(
        population,
        ReaderFrontEnd(noise_std=population.noise_std),
        rng,
        population.readers,
        **kwargs,
    )


class TestSimulateMultiReader:
    def test_single_reader_delivers_whole_field(self):
        out = _outcome(multi_reader_scenario(8, n_readers=1))
        assert out.delivered.all()
        assert out.dropped_slots == 0 and out.degraded_slots == 0
        assert out.per_reader_slots.sum() == out.total_slots
        assert out.duration_s > 0.0

    def test_disjoint_zones_see_no_interference(self):
        scenario = multi_reader_scenario(8, n_readers=2, overlap_fraction=0.0)
        out = _outcome(scenario)
        assert out.dropped_slots == 0 and out.degraded_slots == 0
        assert out.delivered.all()

    def test_naive_mode_drops_overlapping_slots(self):
        scenario = multi_reader_scenario(
            10, n_readers=4, collision_mode="naive", overlap_fraction=0.7
        )
        out = _outcome(scenario, seed=42)
        assert out.dropped_slots > 0
        assert out.degraded_slots == 0

    def test_interference_mode_degrades_not_drops(self):
        scenario = multi_reader_scenario(
            10, n_readers=4, collision_mode="interference", overlap_fraction=0.7
        )
        out = _outcome(scenario, seed=42)
        assert out.dropped_slots == 0
        assert out.degraded_slots > 0

    def test_handoff_scenario_realises_zone_crossings(self):
        out = _outcome(handoff_scenario(10), seed=5)
        assert out.handoffs > 0
        assert out.delivered.any()

    def test_respects_global_slot_budget(self):
        scenario = multi_reader_scenario(12, n_readers=2)
        out = _outcome(scenario, max_slots=10)
        assert out.total_slots <= 10

    def test_deterministic_given_generator(self):
        scenario = dense_floor_scenario(9)

        def once():
            out = _outcome(scenario, seed=33)
            return (
                out.total_slots,
                out.duration_s,
                out.delivered.tolist(),
                out.transmissions.tolist(),
                out.messages.tobytes(),
            )

        assert once() == once()

    def test_transmissions_counted_per_reflection(self):
        out = _outcome(multi_reader_scenario(6, n_readers=2), seed=3)
        assert out.transmissions.sum() > 0
        assert out.transmissions.shape == (6,)


class TestDecodeCadence:
    """The actor steps the single-reader decode policy: one decode per
    *kept* slot. Dropped slots never reach the decoder, so they do not
    count."""

    @pytest.mark.parametrize("seed", range(6))
    def test_decodes_every_kept_slot(self, seed, monkeypatch):
        from repro.core.rateless import RatelessDecoder

        built = []

        class Recording(RatelessDecoder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr("repro.core.rateless.RatelessDecoder", Recording)
        scenario = multi_reader_scenario(12, collision_mode="naive")
        out = _outcome(scenario, seed=seed)
        assert out.dropped_slots > 0
        assert len(built) == out.sessions
        for decoder in built:
            n = decoder.slots_collected
            assert [p.slot for p in decoder.progress] == list(range(1, n + 1))


class TestTransmissionAccounting:
    """Per-tag transmissions count the reflections that reached the air —
    the coin row masked by the serving reader's coverage, exactly what the
    mobile data loop counts — never the bare scheduled row."""

    def _spied(self, scenario, seed, monkeypatch):
        """Run once, tallying per tag: slots served while covered, coin
        heads, and coin heads while covered."""
        from repro.coding.prng import slot_decision_matrix
        from repro.nodes.tag import SALT_DATA
        from repro.sim.multireader import _ReaderActor

        k = scenario.n_tags
        tally = {name: np.zeros(k, dtype=int) for name in ("covered", "heads", "aired")}
        original = _ReaderActor.slot_start

        def spy(actor, sched):
            j, t0, members = actor.slot_index, sched.now, actor.members.copy()
            original(actor, sched)
            if actor.slot_index != j + 1:
                return  # the session ended instead of running a slot
            covered = actor.sim.zones.coverage_at(t0)[actor.index, members]
            heads = slot_decision_matrix(
                actor.seeds, range(j, j + 1), float(actor.decoder.density), salt=SALT_DATA
            )[0].astype(bool)
            tally["covered"][members[covered]] += 1
            tally["heads"][members[heads]] += 1
            tally["aired"][members[heads & covered]] += 1

        monkeypatch.setattr(_ReaderActor, "slot_start", spy)
        return _outcome(scenario, seed=seed), tally

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), k=st.integers(4, 12))
    def test_handoff_counts_never_exceed_covered_slots(self, seed, k):
        with pytest.MonkeyPatch.context() as monkeypatch:
            out, tally = self._spied(handoff_scenario(k), seed, monkeypatch)
        assert np.array_equal(out.transmissions, tally["aired"])
        assert np.all(out.transmissions <= tally["covered"])

    def test_handoff_uncovered_heads_are_not_counted(self, monkeypatch):
        """The seeded handoff run has coin heads outside coverage — the
        case the scheduled-row count used to bill as transmissions."""
        out, tally = self._spied(handoff_scenario(10), 5, monkeypatch)
        assert out.handoffs > 0
        assert tally["heads"].sum() > tally["aired"].sum()
        assert np.array_equal(out.transmissions, tally["aired"])

    def test_dense_floor_counts_unchanged(self, monkeypatch):
        """No handoffs: every member stays covered, the covered row is the
        scheduled row, and the seeded counts are the pinned ones."""
        scenario = dense_floor_scenario(9)
        assert scenario.readers.handoff_rate_hz == 0.0
        out, tally = self._spied(scenario, 33, monkeypatch)
        assert np.array_equal(tally["heads"], tally["aired"])
        assert np.array_equal(out.transmissions, tally["heads"])
        assert out.transmissions.tolist() == [64, 34, 2, 6, 62, 34, 2, 5, 68]
        assert out.total_slots == 128


class TestMultiReaderScheme:
    def test_family_registered(self):
        names = available_schemes()
        assert "multi-reader" in names
        for mode in COLLISION_MODES:
            assert f"multi-reader-{mode}" in names

    def test_result_shape_and_rate(self):
        scenario = two_portal_scenario(8)
        rng = np.random.default_rng(21)
        population = scenario.draw_population(rng)
        result = get_scheme("multi-reader").run(
            population,
            ReaderFrontEnd(noise_std=population.noise_std),
            rng,
            BuzzConfig(),
        )
        assert result.scheme == "multi-reader"
        assert result.n_tags == 8
        assert 0 <= result.message_loss <= 8
        if result.slots_used:
            assert result.bits_per_symbol == pytest.approx(
                8 / result.slots_used
            )
        assert result.transmissions.shape == (8,)

    def test_mode_variant_overrides_scenario_mode(self):
        scenario = multi_reader_scenario(
            8, n_readers=3, collision_mode="naive", overlap_fraction=0.7
        )
        rng = np.random.default_rng(4)
        population = scenario.draw_population(rng)
        # The interference variant must not drop a single slot even though
        # the scenario's own model says naive.
        out = simulate_multi_reader(
            population,
            ReaderFrontEnd(noise_std=population.noise_std),
            rng,
            dataclasses.replace(population.readers, collision_mode="interference"),
        )
        assert out.dropped_slots == 0

    def test_defaults_to_stock_model_without_scenario_readers(self):
        scenario = default_uplink_scenario(4)
        rng = np.random.default_rng(8)
        population = scenario.draw_population(rng)
        assert population.readers is None
        result = get_scheme("multi-reader").run(
            population,
            ReaderFrontEnd(noise_std=population.noise_std),
            rng,
            BuzzConfig(),
        )
        assert result.n_tags == 4


class TestPhysicalBound:
    """No multi-reader run outruns the Gaussian MAC.

    Correctly delivered information bits per collected slot symbol, over
    every reader's slots, stay within the sum-rate capacity
    ``log2(1 + Σ|h_i|² / σ²)`` (El Gamal & Kim, *Lecture Notes on Network
    Information Theory*): a foreign reader hears an overlap tag at no more
    than its in-zone gain, so no reader receives more than the sum power.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=12),
        mode=st.sampled_from(COLLISION_MODES),
        handoff_hz=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_delivered_rate_within_mac_sum_capacity(self, k, mode, handoff_hz, seed):
        scenario = multi_reader_scenario(
            k, 12, collision_mode=mode, handoff_rate_hz=handoff_hz
        )
        rng = np.random.default_rng(seed)
        population = scenario.draw_population(rng)
        out = simulate_multi_reader(
            population,
            ReaderFrontEnd(noise_std=population.noise_std),
            rng,
            population.readers,
        )
        assert out.total_slots > 0
        p = population.messages.shape[1]
        correct = out.delivered & np.all(out.messages == population.messages, axis=1)
        rate = correct.sum() * (p - CRC5_GEN2.width) / (out.total_slots * p)
        noise_power = population.noise_std**2
        assert rate <= np.log2(1.0 + np.sum(np.abs(population.channels) ** 2) / noise_power)


class TestScenarioIntegration:
    def test_named_scenarios_carry_reader_models(self):
        for name, readers in (
            ("two-portal", 2),
            ("dense-floor", 4),
            ("handoff", 3),
        ):
            scenario = scenario_by_name(name, 8)
            assert scenario.readers is not None
            assert scenario.readers.n_readers == readers

    def test_cache_token_backcompat_without_readers(self):
        """Pre-existing single-reader scenarios must keep their cache keys:
        the token only grows a ``readers`` entry when one is set."""
        token = default_uplink_scenario(4).cache_token()
        assert "readers" not in token
        assert "mobility" not in token
        token = two_portal_scenario(4).cache_token()
        assert token["readers"]["n_readers"] == 2
        json.dumps(token)  # must stay JSON-able

    def test_backend_byte_identity_on_two_portal(self, tmp_path):
        """ISSUE 9 acceptance: every backend produces byte-identical
        campaign results for an event-driven multi-reader cell."""
        spec = CampaignSpec(
            scenario=two_portal_scenario(6),
            root_seed=777,
            n_locations=2,
            n_traces=1,
            schemes=("multi-reader",),
        )
        golden = run_campaign(spec).to_json()
        pool = run_campaign(spec, backend="process-pool", jobs=2).to_json()
        queued = run_campaign(
            spec, backend="cache-queue", cache_dir=tmp_path / "cq"
        ).to_json()
        assert pool == golden
        assert queued == golden
