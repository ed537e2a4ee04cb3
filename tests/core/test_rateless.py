"""Tests for repro.core.rateless — the distributed rateless code."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.crc import CRC5_GEN2
from repro.core.config import BuzzConfig
from repro.core.identification import ChannelEstimates
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import (
    RatelessDecoder,
    ack_duration_s,
    oracle_id_space,
    run_rateless_uplink,
)
from repro.core.reference import RebuildRatelessDecoder, full_width_problem
from repro.core.silencing import run_rateless_with_silencing
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.network.scenarios import mobile_scenario
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import COHERENCE_S, ChannelModel, ChannelTrajectory
from repro.phy.constellation import collision_constellation
from repro.utils.rng import SeedSequenceFactory

GOOD = ChannelModel(mean_snr_db=24.0, near_far_db=8.0, noise_std=0.1)
BAD = ChannelModel(mean_snr_db=10.0, near_far_db=6.0, noise_std=0.1)


def _population(k, seed, model=GOOD, message_bits=24):
    pop = make_population(k, np.random.default_rng(seed), channel_model=model,
                          message_bits=message_bits)
    rng = np.random.default_rng(seed + 1000)
    for tag in pop.tags:
        tag.draw_temp_id(10 * k * k, rng)
    return pop


def _segment(tags, fe, rng, seeds, channels, **kwargs):
    """A static session segment over the recovered view ``seeds`` with
    channel estimates ``channels``, the density and abort bound from its
    size."""
    kwargs.setdefault("max_slots", BuzzConfig().max_data_slots(len(seeds)))
    return run_mobile_data_segment(
        tags, fe, rng, estimates=ChannelEstimates(seeds, channels), trajectory=None,
        participants=np.ones(len(tags), dtype=bool), start_s=0.0,
        k_hat=len(seeds), **kwargs,
    )


class TestRatelessDecoder:
    def test_expected_row_matches_tags(self):
        pop = _population(6, 0)
        cfg = BuzzConfig()
        p = cfg.data_density(6)
        dec = RatelessDecoder([t.temp_id for t in pop.tags], pop.channels, 29, p)
        for slot in range(20):
            tag_row = np.array([1 if t.data_transmits(slot, p) else 0 for t in pop.tags])
            assert np.array_equal(dec.expected_rows([slot])[0], tag_row)

    def test_add_slot_validates_length(self):
        pop = _population(2, 1)
        dec = RatelessDecoder([1, 2], pop.channels, 10, 0.5)
        with pytest.raises(ValueError):
            dec.add_slot(np.zeros(5, dtype=complex), np.ones(2, dtype=np.uint8))

    def test_decode_before_slots_is_empty_progress(self):
        dec = RatelessDecoder([1, 2], np.ones(2, dtype=complex), 10, 0.5)
        progress = dec.try_decode()
        assert progress.slot == 0 and progress.total_decoded == 0

    def test_seed_channel_length_mismatch(self):
        with pytest.raises(ValueError):
            RatelessDecoder([1, 2, 3], np.ones(2, dtype=complex), 10, 0.5)


class _Scripted(RatelessDecoder):
    """A decoder whose decode step verifies the columns scripted for each
    ingest and nothing else, so the ingest policy is seen on its own."""

    def __init__(self, script, k=3, **kwargs):
        super().__init__(list(range(k)), np.ones(k, dtype=complex), 4, 0.5, **kwargs)
        self._script = iter(script)

    def _decode_fixpoint(self):
        self._decoded[list(next(self._script))] = True


def _ingest_all(dec, n):
    """Ingest ``n`` all-ones rows; per ingest, return the newly verified
    columns and the ``stalled`` flag and ACK overhead after it."""
    out = []
    for _ in range(n):
        fresh = dec.ingest(np.zeros(dec.p, dtype=complex), np.ones(dec.k, dtype=np.uint8))
        out.append((fresh.tolist(), dec.stalled, dec.ack_overhead_s))
    return out


class TestIngestPolicy:
    """The reader's per-slot policy: stall monitor and ACK masking."""

    @pytest.mark.parametrize("limit", [1, 2, 3, 5])
    def test_stall_trips_after_exactly_limit_idle_ingests(self, limit):
        dec = _Scripted([[]] * limit, stall_limit=limit)
        steps = _ingest_all(dec, limit)
        assert [stalled for _, stalled, _ in steps] == [False] * (limit - 1) + [True]
        assert dec.done and not dec.all_decoded

    def test_without_stall_limit_idle_ingests_never_stall(self):
        dec = _Scripted([[]] * 20)
        assert not any(stalled for _, stalled, _ in _ingest_all(dec, 20))
        assert not dec.done

    def test_idle_count_resets_when_a_column_verifies(self):
        script = [[], [], [0], [], [], [1], [], [], []]
        dec = _Scripted(script, stall_limit=3)
        steps = _ingest_all(dec, len(script))
        assert [fresh for fresh, _, _ in steps] == script
        assert [stalled for _, stalled, _ in steps] == [False] * 8 + [True]

    def test_never_stalls_once_every_column_is_decoded(self):
        dec = _Scripted([[0, 1, 2], [], [], [], []], stall_limit=2)
        assert not any(stalled for _, stalled, _ in _ingest_all(dec, 5))
        assert dec.done and dec.all_decoded

    def test_acked_columns_are_masked_and_priced(self):
        dec = _Scripted([[0], [], [1, 2], []], ack_s=0.25)
        steps = _ingest_all(dec, 4)
        assert [overhead for *_, overhead in steps] == [0.25, 0.25, 0.75, 0.75]
        assert dec._row_buf[:4].tolist() == [[1, 1, 1], [0, 1, 1], [0, 1, 1], [0, 0, 0]]
        assert dec.acked.all()

    def test_without_ack_nothing_is_acked_or_masked(self):
        dec = _Scripted([[0], [1], [], [2]])
        for _ in range(4):
            _ingest_all(dec, 1)
            assert not dec.acked.any()
        assert dec._row_buf[:4].all()
        assert dec.ack_overhead_s == 0.0 and dec.all_decoded

    def test_ingest_leaves_the_callers_row_untouched(self):
        dec = _Scripted([[0], []], ack_s=0.25)
        row = np.ones(3, dtype=np.uint8)
        for _ in range(2):
            dec.ingest(np.zeros(dec.p, dtype=complex), row)
        assert row.tolist() == [1, 1, 1]
        assert dec._row_buf[1].tolist() == [0, 1, 1]

    def test_real_decode_stalls_on_a_phantom_column(self):
        """A view column no tag answers never verifies: with the monitor
        on, the reader gives up ``stall_limit`` ingests after the last real
        column verified."""
        pop = _population(5, 6)
        p = BuzzConfig().data_density(6)
        seeds = [t.temp_id for t in pop.tags] + [max(pop.temp_ids) + 1]
        channels = np.append(pop.channels, 1.0 + 0.5j)
        dec = RatelessDecoder(seeds, channels, pop.messages.shape[1], p,
                              noise_std=0.1, stall_limit=4)
        fe, rng = ReaderFrontEnd(noise_std=0.1), np.random.default_rng(5)
        last_fresh = None
        for slot in range(200):
            row = dec.expected_rows([slot])[0]
            tx = (pop.messages * row[:5, None]).T
            if dec.ingest(fe.observe(tx, pop.channels, rng), row).size:
                last_fresh = slot
            if dec.done:
                break
        assert dec.stalled and dec.decoded_mask.tolist() == [True] * 5 + [False]
        assert slot - last_fresh == 4

    def test_add_slot_validates_row_length(self):
        dec = _Scripted([])
        with pytest.raises(ValueError):
            dec.add_slot(np.zeros(dec.p, dtype=complex), np.ones(2, dtype=np.uint8))

    def test_real_decode_acks_what_verifies(self):
        """With the real decoder, the ACKed set is the verified set and
        each verified column is priced once."""
        pop = _population(6, 3)
        p = BuzzConfig().data_density(6)
        dec = RatelessDecoder([t.temp_id for t in pop.tags], pop.channels,
                              pop.messages.shape[1], p, noise_std=0.1, ack_s=0.5)
        fe, rng = ReaderFrontEnd(noise_std=0.1), np.random.default_rng(4)
        total = 0
        for slot in range(40):
            row = dec.expected_rows([slot])[0]
            tx = (pop.messages * (row * ~dec.acked)[:, None]).T
            fresh = dec.ingest(fe.observe(tx, pop.channels, rng), row)
            total += fresh.size
            assert np.array_equal(dec.acked, dec.decoded_mask)
            assert dec.ack_overhead_s == 0.5 * total
            if dec.done:
                break
        assert dec.all_decoded and total == 6


class TestRunRatelessUplink:
    def test_good_channels_all_decoded_correctly(self):
        for seed in range(5):
            pop = _population(6, seed)
            fe = ReaderFrontEnd(noise_std=0.1)
            result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(seed))
            assert result.decoded_mask.all()
            assert result.bit_errors == 0
            assert np.array_equal(result.messages, pop.messages)

    def test_rate_above_one_on_good_channels(self):
        rates = []
        for seed in range(6):
            pop = _population(6, 100 + seed)
            fe = ReaderFrontEnd(noise_std=0.1)
            result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(seed))
            rates.append(result.bits_per_symbol())
        assert np.mean(rates) > 1.0

    def test_rate_adapts_down_on_bad_channels(self):
        """The rateless property: worse channels → more slots → lower rate,
        but still correct delivery."""
        good_rates, bad_rates = [], []
        for seed in range(4):
            pop = _population(4, 200 + seed, model=GOOD)
            fe = ReaderFrontEnd(noise_std=0.1)
            good_rates.append(
                run_rateless_uplink(pop.tags, fe, np.random.default_rng(seed)).bits_per_symbol()
            )
            pop = _population(4, 300 + seed, model=BAD)
            result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(seed))
            bad_rates.append(result.bits_per_symbol())
        assert np.mean(bad_rates) < np.mean(good_rates)

    def test_transmissions_match_density(self):
        pop = _population(8, 2)
        fe = ReaderFrontEnd(noise_std=0.1)
        cfg = BuzzConfig()
        result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(2), config=cfg)
        expected = cfg.data_density(8) * result.slots_used
        assert abs(result.transmissions.mean() - expected) < 3.0

    def test_progress_counts_monotone(self):
        pop = _population(8, 3)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(3))
        totals = [p.total_decoded for p in result.progress]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] == 8

    def test_max_slots_respected(self):
        pop = _population(4, 4, model=ChannelModel(mean_snr_db=-5.0, noise_std=0.1))
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_uplink(
            pop.tags, fe, np.random.default_rng(4), max_slots=6
        )
        assert result.slots_used <= 6

    def test_duration_accounting(self):
        pop = _population(4, 5, message_bits=24)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(5))
        p_bits = 24 + 5
        symbol_s = 1.0 / 80_000.0
        expected = result.slots_used * p_bits * symbol_s
        assert result.duration_s == pytest.approx(expected, abs=1.5e-3)

    def test_duration_is_gen2_airtime(self):
        """L slots of P symbols at the Gen-2 uplink rate, plus the Query."""
        pop = _population(6, 12)
        result = run_rateless_uplink(pop.tags, ReaderFrontEnd(noise_std=0.1),
                                     np.random.default_rng(12))
        symbol_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps
        assert result.duration_s == (
            result.slots_used * pop.messages.shape[1] * symbol_s
            + GEN2_DEFAULT_TIMING.query_duration_s()
        )

    def test_channel_estimate_error_tolerated(self):
        """Decoding with slightly wrong ĥ (as identification provides) must
        still deliver all messages on good channels."""
        pop = _population(6, 6)
        fe = ReaderFrontEnd(noise_std=0.1)
        rng = np.random.default_rng(6)
        perturbed = pop.channels * (1.0 + 0.03 * rng.standard_normal(6))
        result = _segment(pop.tags, fe, rng, [t.temp_id for t in pop.tags], perturbed)
        assert result.decoded_mask.all()
        assert result.bit_errors == 0

    def test_empty_population_rejected(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        with pytest.raises(ValueError):
            run_rateless_uplink([], fe, np.random.default_rng(0))

    def test_single_tag(self):
        pop = _population(1, 7)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(7))
        assert result.decoded_mask.all()


def _entangled_mask_reference(decoder, d):
    """The entanglement veto as an O(free²) scalar pair scan over the
    full-width ``d``: the oracle for the vectorized one."""
    mask = np.zeros(decoder.k, dtype=bool)
    weights = d.sum(axis=0)
    threshold = 4.0 * decoder.noise_std
    noise_power = max(decoder.noise_std**2, 1e-18)
    for i in range(decoder.k):
        if decoder._decoded[i] or weights[i] == 0:
            continue
        for j in range(i + 1, decoder.k):
            if decoder._decoded[j] or weights[j] == 0:
                continue
            degenerate = min(
                abs(decoder.h[i] + decoder.h[j]), abs(decoder.h[i] - decoder.h[j])
            )
            if degenerate >= threshold or degenerate >= 0.5 * min(
                abs(decoder.h[i]), abs(decoder.h[j])
            ):
                continue
            only_i = (d[:, i] == 1) & (d[:, j] == 0)
            only_j = (d[:, j] == 1) & (d[:, i] == 0)
            evidence = (
                int(only_i.sum()) * abs(decoder.h[i]) ** 2
                + int(only_j.sum()) * abs(decoder.h[j]) ** 2
            ) / noise_power
            if evidence < 16.0:
                mask[i] = mask[j] = True
    return mask


def _margin_from_scratch(decoder, node, row, participants):
    """The margin test's original arithmetic, rebuilt on every call: the
    row's constellation, the (P, 2^n) distance matrix, and per label
    group the minimum over the flipping points of the selected rows."""
    if participants.size == 0:
        return True
    if participants.size > 12:
        return False
    constellation = collision_constellation(decoder.h[participants])
    position = int(np.flatnonzero(participants == node)[0])
    labels_bit = constellation.labels[:, position]
    symbols = decoder._sym_buf[row]
    dist = np.abs(symbols[:, None] - constellation.points[None, :])
    est = decoder._estimates[participants, :]
    weights = 1 << np.arange(participants.size - 1, -1, -1)
    decoded_idx = (weights[:, None] * est).sum(axis=0)
    d_keep = dist[np.arange(decoder.p), decoded_idx]
    node_bits = decoder._estimates[node, :]
    margin = 2.0 * decoder.noise_std
    for group in (0, 1):
        pos_sel = np.flatnonzero(node_bits == group)
        if pos_sel.size == 0:
            continue
        alt_points = np.flatnonzero(labels_bit != group)
        d_alt = dist[np.ix_(pos_sel, alt_points)].min(axis=1)
        if not bool(np.all(d_alt - d_keep[pos_sel] > margin)):
            return False
    return True


class TestMarginTable:
    """The margin test builds each row's table once and reuses it; every
    verdict equals the from-scratch arithmetic."""

    @staticmethod
    def _spy(monkeypatch):
        calls, builds = [], [0]
        original = RatelessDecoder._node_margin_ok

        def checked(self, node, row, participants):
            verdict = original(self, node, row, participants)
            assert verdict == _margin_from_scratch(self, node, row, participants)
            calls.append((id(self), row, self._estimates[participants].tobytes(), verdict))
            return verdict

        def counted(*args, **kwargs):
            builds[0] += 1
            return collision_constellation(*args, **kwargs)

        monkeypatch.setattr(RatelessDecoder, "_node_margin_ok", checked)
        monkeypatch.setattr("repro.phy.constellation.collision_constellation", counted)
        return calls, builds

    def test_session_verdicts_match_and_one_build_per_row(self, monkeypatch):
        from repro.engine.schemes import get_scheme
        from repro.network.scenarios import default_uplink_scenario

        calls, builds = self._spy(monkeypatch)
        seeds = SeedSequenceFactory(1)
        population = default_uplink_scenario(32).draw_population(seeds.stream("location", 0))
        get_scheme("buzz").run(
            population, ReaderFrontEnd(noise_std=population.noise_std),
            seeds.stream("trace", 0, 0, "buzz"), config=BuzzConfig(),
        )
        snapshots = {}
        for decoder, row, estimates, _ in calls:
            snapshots.setdefault((decoder, row), set()).add(estimates)
        # The session re-tests a row after its participants' estimates moved,
        # and reaches both verdicts.
        assert any(len(seen) > 1 for seen in snapshots.values())
        assert {verdict for *_, verdict in calls} == {False, True}
        assert 0 < builds[0] <= len(snapshots) < len(calls)

    def test_verdicts_match_after_estimates_change(self, monkeypatch):
        """Re-test every row of a finished session under perturbed
        estimates: the cached tables give the from-scratch verdicts."""
        calls, builds = self._spy(monkeypatch)
        pop = _population(12, 3)
        dec = RatelessDecoder(
            [t.temp_id for t in pop.tags], pop.channels, pop.messages.shape[1],
            BuzzConfig().data_density(12), noise_std=0.1,
        )
        rng = np.random.default_rng(9)
        fe = ReaderFrontEnd(noise_std=0.1)
        for slot in range(24):
            row = dec.expected_rows([slot])[0]
            dec.add_slot(fe.observe((pop.messages * row[:, None]).T, pop.channels, rng), row)
        truth = pop.messages.copy()
        verdicts = set()
        for trial in range(6):
            flip = rng.random(truth.shape) < 0.1 * trial
            dec._estimates = (truth ^ flip).astype(np.uint8)
            for row in range(dec.slots_collected):
                participants = np.flatnonzero(dec._row_buf[row])
                for node in participants:
                    verdicts.add(dec._node_margin_ok(int(node), row, participants))
        assert verdicts == {False, True}
        rows = {row for _, row, _, _ in calls}
        assert 0 < builds[0] <= len(rows)


class TestEntangledMaskVectorization:
    """The batched upper-triangle pair scan must equal the scalar loop."""

    def _decoder(self, k, seed, channels=None):
        rng = np.random.default_rng(seed)
        if channels is None:
            channels = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        dec = RebuildRatelessDecoder(list(range(100, 100 + k)), channels, 12, 0.4,
                                     noise_std=0.1)
        return dec, rng

    @staticmethod
    def _veto(dec, d):
        """The one veto on :func:`full_width_problem` over ``d`` with the
        decoder's verified columns frozen, as a mask over all nodes."""
        problem = full_width_problem(
            d, dec.h, np.zeros((d.shape[0], dec.p), dtype=complex), dec._estimates,
            dec._decoded,
        )
        mask = np.zeros(dec.k, dtype=bool)
        mask[problem.active_idx] = dec._entangled_mask(problem)
        return mask

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_draws(self, seed):
        dec, rng = self._decoder(10, seed)
        d = (rng.random((15, 10)) < 0.4).astype(np.uint8)
        dec._decoded[rng.integers(0, 10, size=2)] = True  # some frozen nodes
        assert np.array_equal(self._veto(dec, d), _entangled_mask_reference(dec, d))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_with_near_cancelling_pairs(self, seed):
        """The veto's whole reason to exist: h_i ≈ −h_j pairs (and a near-
        duplicate pair) with overlapping schedules must flag identically."""
        rng = np.random.default_rng(1000 + seed)
        base = rng.standard_normal() + 1j * rng.standard_normal()
        channels = np.array([
            base,
            -base + 0.01 * (rng.standard_normal() + 1j * rng.standard_normal()),
            0.8j,
            0.8j + 0.005,
            1.5,
        ])
        dec, _ = self._decoder(5, seed, channels=channels)
        d = (rng.random((8, 5)) < 0.6).astype(np.uint8)
        got = self._veto(dec, d)
        want = _entangled_mask_reference(dec, d)
        assert np.array_equal(got, want)
        assert want[:2].any() or d[:, :2].sum() == 0 or (d[:, 0] != d[:, 1]).sum() >= 2

    def test_zero_weight_and_decoded_nodes_never_flagged(self):
        dec, rng = self._decoder(6, 42)
        dec.h[1] = -dec.h[0]  # force a degenerate pair
        d = (rng.random((10, 6)) < 0.5).astype(np.uint8)
        d[:, 2] = 0  # node 2 never transmitted
        dec._decoded[3] = True
        mask = self._veto(dec, d)
        assert not mask[2] and not mask[3]
        assert np.array_equal(mask, _entangled_mask_reference(dec, d))

    @pytest.mark.parametrize("seed", range(4))
    def test_state_mask_matches_reference(self, seed):
        """The veto on the reader's live state, and on the full-width
        problem over the same collected rows, equals the scalar scan."""
        rng = np.random.default_rng(2000 + seed)
        base = rng.standard_normal() + 1j * rng.standard_normal()
        channels = np.array([base, -base + 0.01, 0.8j, 0.8j + 0.005, 1.5, -0.7])
        dec = RatelessDecoder(list(range(100, 106)), channels, 12, 0.4, noise_std=0.1)
        d = (rng.random((6, 6)) < 0.5).astype(np.uint8)
        d[0, [0, 2]] = 1
        d[:, 1] = d[:, 0]  # the near-cancelling pair shares every slot …
        d[:, 3] = d[:, 2]
        if seed >= 2:
            d[5, [1, 3]] ^= 1  # … or all but one, which lifts the veto
        for row in d:
            dec.add_slot(np.zeros(12, dtype=complex), row=row)
        got = dec._entangled_mask(dec._state)
        assert np.array_equal(got, _entangled_mask_reference(dec, d))
        assert np.array_equal(self._veto(dec, d), got)
        assert got[2:4].all() == (seed < 2)  # |0.8j|² lone evidence clears 16


class TestDecoderView:
    """A static session segment over the reader's recovered view."""

    def test_identity_view_matches_default_path(self):
        """The tags' own ids + true channels as the recovered view must
        reproduce the oracle run bit for bit."""
        pop = _population(6, 31)
        fe = ReaderFrontEnd(noise_std=0.1)
        baseline = run_rateless_uplink(pop.tags, fe, np.random.default_rng(8))
        viewed = _segment(
            pop.tags, fe, np.random.default_rng(8), [t.temp_id for t in pop.tags],
            pop.channels,
        )
        assert np.array_equal(baseline.decoded_mask, viewed.decoded_mask)
        assert np.array_equal(baseline.messages, viewed.messages)
        assert baseline.slots_used == viewed.slots_used
        assert baseline.duration_s == viewed.duration_s
        assert np.array_equal(baseline.transmissions, viewed.transmissions)

    def test_missing_id_counts_as_loss(self):
        """A tag whose id identification missed transmits unexplained
        energy; its message must be reported lost, not hallucinated."""
        pop = _population(5, 32)
        fe = ReaderFrontEnd(noise_std=0.1)
        recovered = pop.tags[:-1]  # reader never learned the last tag
        result = _segment(
            pop.tags,
            fe,
            np.random.default_rng(9),
            [t.temp_id for t in recovered],
            [t.channel for t in recovered],
            max_slots=60,
        )
        assert not result.decoded_mask[-1]
        assert result.message_loss >= 1

    def test_empty_view_loses_everything_immediately(self):
        """A reader that recovered nobody opens no data phase: it sends the
        trigger and loses every message."""
        pop = _population(4, 33)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = _segment(pop.tags, fe, np.random.default_rng(10), [], [])
        assert result.slots_used == 0
        assert result.duration_s == GEN2_DEFAULT_TIMING.query_duration_s()
        assert result.message_loss == 4
        assert not result.decoded_mask.any()
        assert result.ack_overhead_s == 0


class TestRegenerationCheck:
    @pytest.mark.parametrize("run", [run_rateless_uplink, run_rateless_with_silencing])
    def test_oracle_view_rejects_a_diverging_reader_schedule(self, monkeypatch, run):
        """With the oracle view the reader's regenerated D must equal the
        tags' schedule bit for bit — on the silencing path too."""

        class Skewed(RatelessDecoder):
            def expected_rows(self, slots):
                rows = super().expected_rows(slots)
                rows[:, 0] ^= 1  # the reader mis-regenerates one column
                return rows

        monkeypatch.setattr("repro.core.rateless.RatelessDecoder", Skewed)
        pop = _population(4, 35)
        fe = ReaderFrontEnd(noise_std=0.1)
        with pytest.raises(RuntimeError, match="D regeneration diverged"):
            run(pop.tags, fe, np.random.default_rng(0))


class TestVerificationSafety:
    def test_no_wrong_freezes_across_seeds(self):
        """The corroborated-CRC rule's whole point: when everything is
        reported decoded, the messages must actually be right."""
        for seed in range(8):
            pop = _population(8, 400 + seed, model=ChannelModel(
                mean_snr_db=16.0, near_far_db=12.0, noise_std=0.1))
            fe = ReaderFrontEnd(noise_std=0.1)
            result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(seed))
            decoded = np.flatnonzero(result.decoded_mask)
            for i in decoded:
                assert np.array_equal(result.messages[i], pop.messages[i]), (
                    f"seed {seed}: node {i} frozen with wrong bits"
                )

    def test_near_cancelling_pair_eventually_resolved(self):
        """Two tags with h_i ≈ −h_j must not be frozen wrongly; they resolve
        once their schedules diverge."""
        rng = np.random.default_rng(9)
        pop = make_population(
            4, rng, channel_model=GOOD, message_bits=24,
            channels=np.array([1.0 + 0.1j, -1.0 - 0.09j, 0.6j, 0.8]),
        )
        id_rng = np.random.default_rng(10)
        for tag in pop.tags:
            tag.draw_temp_id(160, id_rng)
        fe = ReaderFrontEnd(noise_std=0.1)
        result = run_rateless_uplink(pop.tags, fe, np.random.default_rng(11))
        assert result.decoded_mask.all()
        assert result.bit_errors == 0


class TestPhysicalBound:
    """No data phase outruns the Gaussian MAC.

    Correctly delivered information bits per received symbol,
    ``n_correct · (P − crc_bits) / (L · P)``, can never exceed the sum-rate
    capacity ``log2(1 + Σ|h_i|² / σ²)`` of the K-user Gaussian multiple-
    access channel (El Gamal & Kim, *Lecture Notes on Network Information
    Theory*) — the tags' on-off inputs carry at most unit power and the
    receiver's complex noise has ``E|n|² = σ²``.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=12),
        snr_db=st.floats(min_value=-5.0, max_value=30.0),
        noise_std=st.floats(min_value=0.02, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        silencing=st.booleans(),
        oracle=st.booleans(),
    )
    def test_delivered_rate_within_mac_sum_capacity(
        self, k, snr_db, noise_std, seed, silencing, oracle
    ):
        model = ChannelModel(mean_snr_db=snr_db, near_far_db=8.0, noise_std=noise_std)
        pop = _population(k, seed % 10_000, model=model, message_bits=12)
        fe = ReaderFrontEnd(noise_std=noise_std)
        rng = np.random.default_rng(seed)
        if oracle:
            run = run_rateless_with_silencing if silencing else run_rateless_uplink
            result = run(pop.tags, fe, rng)
        else:
            # Identification missed one tag and estimated the rest with error.
            err = np.random.default_rng(seed)
            kept = pop.tags[1:]
            seeds = [t.temp_id for t in kept]
            estimates = [
                t.channel + 0.1 * noise_std * complex(*err.standard_normal(2))
                for t in kept
            ]
            ack_s = ack_duration_s(oracle_id_space(k)) if silencing else None
            result = _segment(pop.tags, fe, rng, seeds, estimates, ack_s=ack_s)
        assert result.slots_used > 0
        p = pop.messages.shape[1]
        correct = result.decoded_mask & np.all(result.messages == pop.messages, axis=1)
        rate = correct.sum() * (p - CRC5_GEN2.width) / (result.slots_used * p)
        capacity = np.log2(1.0 + np.sum(np.abs(pop.channels) ** 2) / noise_std**2)
        assert rate <= capacity

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=12),
        drift_hz=st.floats(min_value=0.0, max_value=24.0),
        departure_hz=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        silencing=st.booleans(),
    )
    def test_mobile_segment_within_mac_sum_capacity(
        self, k, drift_hz, departure_hz, seed, silencing
    ):
        """The same bound on a drifting, churning field, with the sum power
        taken at the strongest fading block the segment covered."""
        scenario = mobile_scenario(
            k, 12, drift_rate_hz=drift_hz, departure_rate_hz=departure_hz
        )
        pop = scenario.draw_population(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for tag in pop.tags:
            tag.draw_temp_id(10 * k * k, rng)
        trajectory = ChannelTrajectory(
            pop.channels, pop.mobility, np.random.default_rng(seed + 2)
        )
        result = run_mobile_data_segment(
            pop.tags,
            ReaderFrontEnd(noise_std=pop.noise_std),
            rng,
            estimates=ChannelEstimates([t.temp_id for t in pop.tags], pop.channels),
            trajectory=trajectory,
            participants=np.ones(k, dtype=bool),
            start_s=0.0,
            k_hat=k,
            max_slots=BuzzConfig().max_data_slots(k),
            ack_s=ack_duration_s(oracle_id_space(k)) if silencing else None,
        )
        assert result.slots_used > 0
        p = pop.messages.shape[1]
        correct = result.decoded_mask & np.all(result.messages == pop.messages, axis=1)
        rate = correct.sum() * (p - CRC5_GEN2.width) / (result.slots_used * p)
        block_s = COHERENCE_S
        power = max(
            np.sum(np.abs(trajectory.channels_at((b + 0.5) * block_s)) ** 2)
            for b in range(trajectory.block_index(result.duration_s) + 1)
        )
        assert rate <= np.log2(1.0 + power / pop.noise_std**2)
