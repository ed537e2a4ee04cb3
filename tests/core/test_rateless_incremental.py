"""Incremental decoder state ≡ rebuild, bit for bit.

The rateless loop keeps a persistent :class:`DecoderState` (bits,
DᵀD overlaps, correlations, residuals) that grows by rank-(new rows)
updates and shrinks by frozen-column peeling. These tests pin the load-
bearing claim: every protocol-visible output of the incremental path —
estimates, decoded masks, slots, progress — is byte-identical to the
from-scratch :class:`RebuildRatelessDecoder` reference, across decode
cadences, silencing row overrides, adaptive re-identification splices
and multi-reader sessions; plus the exactness guarantees of the state
algebra itself and the PHY block-batching that rides along. The
reference is selected by patching the class name where the data-phase
stepper looks it up.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BuzzConfig
from repro.core.decoder_state import DecoderState
from repro.core.identification import ChannelEstimates
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import RatelessDecoder, run_rateless_uplink
from repro.core.reference import RebuildRatelessDecoder, full_width_problem
from repro.core.silencing import run_rateless_with_silencing
from repro.engine.schemes import get_scheme
from repro.network.scenarios import default_uplink_scenario, scenario_by_name
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel, ChannelTrajectory, MobilityModel
from repro.phy.noise import awgn, awgn_block
from repro.phy.signal import received_symbol_block, received_symbols
from repro.sim.multireader import MultiReaderOutcome, simulate_multi_reader
from repro.utils.rng import SeedSequenceFactory

GOOD = ChannelModel(mean_snr_db=24.0, near_far_db=8.0, noise_std=0.1)


def _population(k, seed, model=GOOD, message_bits=24):
    pop = make_population(k, np.random.default_rng(seed), channel_model=model,
                          message_bits=message_bits)
    rng = np.random.default_rng(seed + 1000)
    for tag in pop.tags:
        tag.draw_temp_id(10 * k * k, rng)
    return pop


#: The module whose data-phase stepper constructs the rateless decoder by
#: name — for the single-reader loop and the multi-reader actor alike.
_LOOP_MODULES = ("repro.core.rateless",)


def _use_reference(monkeypatch):
    """Point the data-phase stepper at the rebuild reference for this test."""
    for module in _LOOP_MODULES:
        monkeypatch.setattr(f"{module}.RatelessDecoder", RebuildRatelessDecoder)


def _counting(base, built):
    """``base`` subclassed to record every construction in ``built``."""

    class Counting(base):
        def __init__(self, *args, **kwargs):
            built.append(type(self))
            super().__init__(*args, **kwargs)

    return Counting


def _multi_reader(scenario, seed):
    rng = np.random.default_rng(seed)
    pop = scenario.draw_population(rng)
    return simulate_multi_reader(
        pop, ReaderFrontEnd(noise_std=pop.noise_std), rng, pop.readers
    )


class TestSinglePatchPoint:
    def test_every_entry_point_builds_the_decoder_named_in_rateless(self, monkeypatch):
        """The static, silencing and mobile entry points share one loop, so
        a decoder class patched at ``repro.core.rateless`` alone reaches
        all three — the rebuild reference needs no other patch point."""
        built = []
        Counting = _counting(RatelessDecoder, built)
        monkeypatch.setattr("repro.core.rateless.RatelessDecoder", Counting)
        pop = _population(4, 5)
        fe = ReaderFrontEnd(noise_std=0.1)
        run_rateless_uplink(pop.tags, fe, np.random.default_rng(0))
        run_rateless_with_silencing(pop.tags, fe, np.random.default_rng(1))
        run_mobile_data_segment(
            pop.tags,
            fe,
            np.random.default_rng(2),
            estimates=ChannelEstimates([t.temp_id for t in pop.tags], pop.channels),
            trajectory=ChannelTrajectory(
                pop.channels, MobilityModel(), np.random.default_rng(3)
            ),
            participants=np.ones(4, dtype=bool),
            start_s=0.0,
            k_hat=4,
            max_slots=40,
        )
        assert built == [Counting] * 3

    def test_multi_reader_builds_the_decoder_named_in_rateless(self, monkeypatch):
        """The multi-reader actor steps the same data phase, so the patch
        point reaches it too: one decoder per inventory session."""
        built = []
        Counting = _counting(RatelessDecoder, built)
        monkeypatch.setattr("repro.core.rateless.RatelessDecoder", Counting)
        out = _multi_reader(scenario_by_name("dense-floor", 12), 0)
        assert out.sessions > 0
        assert built == [Counting] * out.sessions

    @pytest.mark.parametrize("name", ["dense-floor", "two-portal"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multi_reader_rebuild_equivalence(self, monkeypatch, name, seed):
        """The rebuild oracle, patched at the one patch point, drives every
        multi-reader session and reproduces the incremental run exactly."""
        incremental = _multi_reader(scenario_by_name(name, 12), seed)
        built = []
        monkeypatch.setattr(
            "repro.core.rateless.RatelessDecoder",
            _counting(RebuildRatelessDecoder, built),
        )
        rebuilt = _multi_reader(scenario_by_name(name, 12), seed)
        assert len(built) == rebuilt.sessions > 0
        for attr in MultiReaderOutcome.__dataclass_fields__:
            assert np.array_equal(getattr(incremental, attr), getattr(rebuilt, attr)), attr


def _run(pop, seed, rebuild=False, noise=0.1, max_slots=None, config=BuzzConfig()):
    fe = ReaderFrontEnd(noise_std=noise)
    decoder_cls = RebuildRatelessDecoder if rebuild else RatelessDecoder
    with mock.patch("repro.core.rateless.RatelessDecoder", decoder_cls):
        return run_rateless_uplink(
            pop.tags, fe, np.random.default_rng(seed), max_slots=max_slots, config=config
        )


def _assert_identical(a, b):
    assert np.array_equal(a.decoded_mask, b.decoded_mask)
    assert np.array_equal(a.messages, b.messages)
    assert a.slots_used == b.slots_used
    assert a.progress == b.progress
    assert np.array_equal(a.transmissions, b.transmissions)
    assert a.bit_errors == b.bit_errors


# ---------------------------------------------------------------------------
# DecoderState algebra
# ---------------------------------------------------------------------------
class TestDecoderState:
    def _random_state(self, seed, k=9, m=13, n_rows=40):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=k) + 1j * rng.normal(size=k)
        bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
        state = DecoderState(h, bits)
        rows = (rng.random((n_rows, k)) < 0.3).astype(np.uint8)
        symbols = rng.normal(size=(n_rows, m)) + 1j * rng.normal(size=(n_rows, m))
        for j in range(n_rows):
            state.append_slot(rows[j], symbols[j])
        return state, rows, symbols, h, bits

    def test_append_slot_structure_exact(self):
        """weights and DᵀD are exact integer accumulations, bit for bit."""
        state, rows, _, _, _ = self._random_state(0)
        d = rows.astype(float)
        assert np.array_equal(state.weights, d.sum(axis=0))
        assert np.array_equal(state.overlap, d.T @ d)
        assert np.array_equal(state.d, rows)

    def test_append_slot_residual_and_corr_match_recompute(self):
        state, rows, symbols, h, bits = self._random_state(1)
        res_exact = state.y - state.d @ (state.h[:, None] * state.bits)
        np.testing.assert_allclose(state.residual, res_exact, atol=1e-12)
        corr = state.d.T @ np.conj(state.residual)
        np.testing.assert_allclose(state.corr_re, corr.real, atol=1e-12)
        np.testing.assert_allclose(state.corr_im, corr.imag, atol=1e-12)

    def test_growth_beyond_initial_capacity(self):
        state, rows, _, _, _ = self._random_state(2, n_rows=200)
        assert state.n_rows == 200
        assert np.array_equal(state.d, rows)

    def test_peel_moves_contribution_exactly(self):
        """Peeling leaves the residual bytes untouched and keeps y − D·h·b
        consistent: the frozen contribution moves to the symbol side."""
        state, _, _, _, _ = self._random_state(3)
        res_before = state.residual.copy()
        peeled = np.array([1, 4], dtype=np.int64)
        kept = np.array([0, 2, 3, 5, 6, 7, 8])
        h_before = state.h.copy()
        overlap_before = state.overlap.copy()
        weights_before = state.weights.copy()
        state.peel(peeled)
        assert state.k_active == 7
        assert np.array_equal(state.active_idx, kept)
        # Residual bytes untouched, exactly.
        assert np.array_equal(state.residual, res_before)
        # Structure arrays are compactions of the old ones, exactly.
        assert np.array_equal(state.h, h_before[kept])
        assert np.array_equal(state.weights, weights_before[kept])
        assert np.array_equal(state.overlap, overlap_before[np.ix_(kept, kept)])
        # The peeled problem still closes: residual == y − D·diag(h)·bits.
        res_exact = state.y - state.d @ (state.h[:, None] * state.bits)
        np.testing.assert_allclose(state.residual, res_exact, atol=1e-12)

    def test_append_after_peel_slices_active_columns(self):
        state, _, _, h, _ = self._random_state(4)
        state.peel(np.array([0], dtype=np.int64))
        row_full = np.zeros(9, dtype=np.uint8)
        row_full[[0, 2]] = 1  # node 0 is frozen — its slice must drop out
        symbols = np.ones(13, dtype=complex)
        state.append_slot(row_full, symbols)
        assert np.array_equal(state.d[-1], (state.active_idx == 2).astype(np.uint8))

    def test_validation(self):
        state, _, _, _, _ = self._random_state(5)
        with pytest.raises(ValueError):
            state.append_slot(np.zeros(3, dtype=np.uint8), np.zeros(13, dtype=complex))
        with pytest.raises(ValueError):
            state.append_slot(np.zeros(9, dtype=np.uint8), np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            DecoderState(np.ones(3, dtype=complex), np.zeros((2, 5), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Incremental ≡ rebuild, end to end
# ---------------------------------------------------------------------------
class TestIncrementalEquivalence:
    @pytest.mark.parametrize("k", [8, 16])
    def test_golden_session_identical_per_k(self, k):
        """Acceptance: one full buzz-e2e session per population size,
        peeling on, byte-identical to the rebuild reference."""
        pop = _population(k, 42)
        inc = _run(pop, 42)
        reb = _run(pop, 42, rebuild=True)
        _assert_identical(inc, reb)
        assert inc.decoded_mask.all() and inc.bit_errors == 0

    def test_abort_bound_session_identical(self):
        """Sessions that hit the slot cap with tags still undecoded — the
        path where weight-0/entangled estimates stay live longest."""
        pop = _population(10, 7, model=ChannelModel(mean_snr_db=6.0, near_far_db=10.0,
                                                    noise_std=0.4))
        inc = _run(pop, 7, noise=0.4, max_slots=120)
        reb = _run(pop, 7, rebuild=True, noise=0.4, max_slots=120)
        _assert_identical(inc, reb)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lockstep_property_random_cadence_and_silencing(self, seed):
        """Property: across random decode cadences, noise levels, and
        mid-session silencing row overrides, the two paths agree after
        every single decode call — not just at session end."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 12))
        decode_every = int(rng.integers(1, 6))
        noise = float(rng.choice([0.05, 0.2, 0.5]))
        n_slots = int(rng.integers(10, 60))
        pop = _population(k, int(rng.integers(0, 10_000)))
        messages = pop.messages
        channels = pop.channels
        seeds = [t.temp_id for t in pop.tags]
        config = BuzzConfig()
        density = config.data_density(k)
        dec_seed = int(rng.integers(0, 2**63))

        def mk(decoder_cls):
            return decoder_cls(
                seeds=seeds, channels=channels, n_positions=messages.shape[1],
                density=density, config=config,
                rng=np.random.default_rng(dec_seed), noise_std=noise,
            )

        a, b = mk(RatelessDecoder), mk(RebuildRatelessDecoder)
        assert a._state is not None and b._state is None
        phy = np.random.default_rng(dec_seed ^ 0x5DEECE66D)
        for slot in range(n_slots):
            row = a.expected_rows([slot])[0]
            override = rng.random() < 0.3
            if override:
                # Reader-known silencing: decoded tags stay quiet.
                row = row * (~a._decoded).astype(np.uint8)
            symbols = received_symbols(
                (messages * row[:, None]).T, channels, noise_std=noise, rng=phy
            )
            a.add_slot(symbols, row)
            b.add_slot(symbols, row)
            if (slot + 1) % decode_every == 0:
                pa, pb = a.try_decode(), b.try_decode()
                assert pa == pb
                assert np.array_equal(a._estimates, b._estimates)
                assert np.array_equal(a._decoded, b._decoded)

    def test_adaptive_reidentification_splices_identical(self, monkeypatch):
        """Mobility sessions re-identify mid-way and splice a refreshed
        view into a fresh decoder; both decode-state modes must agree on
        every persisted field."""
        from repro.engine.campaign import CampaignSpec, run_campaign
        from repro.network.scenarios import scenario_by_name

        def records():
            spec = CampaignSpec(
                scenario=scenario_by_name("mobile-dense", 6),
                root_seed=77,
                n_locations=1,
                n_traces=1,
                schemes=("buzz-adaptive", "silenced-adaptive"),
            )
            result = run_campaign(spec, jobs=1)
            return [
                (r.scheme, float(r.duration_s), int(r.message_loss),
                 int(r.slots_used), int(r.bit_errors),
                 None if r.reidentifications is None else int(r.reidentifications),
                 [int(t) for t in r.transmissions])
                for r in result.runs
            ]

        incremental = records()
        _use_reference(monkeypatch)
        assert incremental == records()

    def test_all_decoded_then_more_slots(self):
        """k_active == 0 edge: extra slots and decode calls after every
        node froze must be well-defined and identical in both modes."""
        pop = _population(5, 3)
        seeds = [t.temp_id for t in pop.tags]
        config = BuzzConfig()
        density = config.data_density(5)

        def run(decoder_cls):
            dec = decoder_cls(
                seeds=seeds, channels=pop.channels,
                n_positions=pop.messages.shape[1], density=density,
                config=config, rng=np.random.default_rng(99), noise_std=0.05,
            )
            phy = np.random.default_rng(100)
            slot = 0
            while not dec.all_decoded and slot < 200:
                row = dec.expected_rows([slot])[0]
                symbols = received_symbols(
                    (pop.messages * row[:, None]).T, pop.channels,
                    noise_std=0.05, rng=phy,
                )
                dec.add_slot(symbols, row)
                slot += 1
                dec.try_decode()
            assert dec.all_decoded
            for extra in range(slot, slot + 5):
                row = dec.expected_rows([extra])[0]
                symbols = received_symbols(
                    (pop.messages * row[:, None]).T, pop.channels,
                    noise_std=0.05, rng=phy,
                )
                dec.add_slot(symbols, row)
                dec.try_decode()
            return dec

        a, b = run(RatelessDecoder), run(RebuildRatelessDecoder)
        assert np.array_equal(a.messages(), b.messages())
        assert np.array_equal(a.decoded_mask, b.decoded_mask)
        assert a.progress == b.progress
        assert a._state.k_active == 0


# ---------------------------------------------------------------------------
# Per round: the incremental state ≡ the rebuild oracle's problem
# ---------------------------------------------------------------------------
def _oracle_run(scheme):
    """One seeded oracle-view cell of ``scheme`` at K = 32 on ``default``."""
    seeds = SeedSequenceFactory(1)
    pop = default_uplink_scenario(32).draw_population(seeds.stream("location", 0))
    get_scheme(scheme).run(
        pop, ReaderFrontEnd(noise_std=pop.noise_std), seeds.stream("trace", 0, 0, scheme),
        config=BuzzConfig(),
    )


def _phantom_segment():
    """A recovered-view segment whose view holds one id no tag answers to."""
    pop = _population(8, 13)
    rng = np.random.default_rng(14)
    seeds = [t.temp_id for t in pop.tags]
    phantom = max(seeds) + 1
    run_mobile_data_segment(
        pop.tags, ReaderFrontEnd(noise_std=0.1), rng,
        estimates=ChannelEstimates(seeds + [phantom],
                                   np.concatenate([pop.channels, GOOD.sample(1, rng)])),
        trajectory=None, participants=np.ones(8, dtype=bool), start_s=0.0, k_hat=9,
        max_slots=BuzzConfig().max_data_slots(9),
    )


class TestRoundProblem:
    """What the rebuild oracle is for: at every decode round, before the
    kernel runs, the reader's incremental state equals
    :func:`full_width_problem` over the same reader's buffers, and both
    readers freeze the same columns round by round."""

    @pytest.mark.parametrize("run", [
        lambda: _oracle_run("buzz"), lambda: _oracle_run("silenced"), _phantom_segment,
    ], ids=["buzz-k32", "silenced-k32", "phantom-view"])
    def test_state_equals_full_width_problem_every_round(self, monkeypatch, run):
        rounds = []
        froze = {RatelessDecoder: [], RebuildRatelessDecoder: []}
        problem = RatelessDecoder._problem
        verify = RatelessDecoder._verify_and_freeze

        def compared(self):
            state = problem(self)
            n = self._n_rows
            fresh = full_width_problem(
                self._row_buf[:n], self.h, self._sym_buf[:n], self._estimates, self._decoded
            )
            for name in ("active_idx", "h", "weights", "overlap", "d"):
                assert np.array_equal(getattr(state, name), getattr(fresh, name)), name
            for name in ("y", "residual", "corr_re", "corr_im"):
                np.testing.assert_allclose(
                    getattr(state, name), getattr(fresh, name), rtol=1e-9, err_msg=name
                )
            rounds.append(state.k_active)
            return state

        def recorded(self, prob):
            newly = verify(self, prob)
            froze[type(self)].append(prob.active_idx[newly].tolist())
            return newly

        monkeypatch.setattr(RatelessDecoder, "_problem", compared)
        monkeypatch.setattr(RatelessDecoder, "_verify_and_freeze", recorded)
        for decoder_cls in froze:
            with mock.patch("repro.core.rateless.RatelessDecoder", decoder_cls):
                run()
        assert froze[RatelessDecoder] == froze[RebuildRatelessDecoder]
        assert len(rounds) == len(froze[RatelessDecoder])
        # The rounds ran on shrinking problems: columns froze and were peeled.
        assert sum(map(len, froze[RatelessDecoder])) > 0 and min(rounds) < max(rounds)


# ---------------------------------------------------------------------------
# Row-buffer safety (satellite: no defensive copies needed)
# ---------------------------------------------------------------------------
class TestRowMutationSafety:
    def _decoder(self, pop):
        config = BuzzConfig()
        return RatelessDecoder(
            seeds=[t.temp_id for t in pop.tags], channels=pop.channels,
            n_positions=pop.messages.shape[1],
            density=config.data_density(len(pop.tags)), config=config,
            rng=np.random.default_rng(1), noise_std=0.1,
        )

    def test_mutating_passed_row_after_add_slot_is_harmless(self):
        pop = _population(4, 11)
        dec = self._decoder(pop)
        ctl = self._decoder(pop)
        row = dec.expected_rows([0])[0].copy()
        symbols = np.ones(pop.messages.shape[1], dtype=complex)
        dec.add_slot(symbols, row=row)
        ctl.add_slot(symbols, row=row.copy())
        row[:] = 1 - row  # caller scribbles over its array afterwards
        assert np.array_equal(dec._row_buf[:1], ctl._row_buf[:1])
        assert dec.try_decode() == ctl.try_decode()
        assert np.array_equal(dec.messages(), ctl.messages())


# ---------------------------------------------------------------------------
# PHY block batching (satellite: hoisted per-slot observe)
# ---------------------------------------------------------------------------
class TestPhyBlockEquivalence:
    def test_awgn_block_matches_per_slot_stream_exactly(self):
        """The batched noise draw consumes the generator identically to
        successive per-slot awgn calls — values AND stream position."""
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        block = awgn_block(7, 11, 0.3, r1)
        per_slot = np.stack([awgn(11, 0.3, r2) for _ in range(7)])
        assert np.array_equal(block, per_slot)
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_received_symbol_block_matches_per_slot(self):
        rng = np.random.default_rng(6)
        k, p, n = 5, 9, 8
        h = rng.normal(size=k) + 1j * rng.normal(size=k)
        bits = (rng.random((k, p)) < 0.5).astype(np.uint8)
        rows = (rng.random((n, k)) < 0.4).astype(np.uint8)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        block = received_symbol_block(rows, bits, h, noise_std=0.2, rng=r1)
        ref = np.stack([
            received_symbols((bits * row[:, None]).T, h, noise_std=0.2, rng=r2)
            for row in rows
        ])
        # Clean part collapses per-slot gemvs into one gemm (last-ulp
        # differences allowed); the noise must be bitwise-shared, so the
        # difference of the two totals is exactly the clean-signal delta.
        np.testing.assert_allclose(block, ref, atol=1e-12)
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_observe_block_falls_back_for_subclassed_observe(self):
        calls = []

        class Hooked(ReaderFrontEnd):
            def observe(self, transmit_matrix, channels, rng):
                calls.append(transmit_matrix.shape)
                return super().observe(transmit_matrix, channels, rng)

        rng = np.random.default_rng(8)
        k, p, n = 3, 6, 4
        h = np.ones(k, dtype=complex)
        bits = (rng.random((k, p)) < 0.5).astype(np.uint8)
        rows = (rng.random((n, k)) < 0.5).astype(np.uint8)
        fe = Hooked(noise_std=0.1)
        out = fe.observe_block(rows, bits, h, np.random.default_rng(9))
        assert len(calls) == n  # the per-slot hook saw every slot
        assert out.shape == (n, p)
        base = ReaderFrontEnd(noise_std=0.1)
        ref = base.observe_block(rows, bits, h, np.random.default_rng(9))
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_session_loop_matches_per_slot_reference(self, monkeypatch):
        """run_rateless_uplink's block loop must reproduce the per-slot
        protocol outputs: same decode trajectory, same decoded bytes."""
        pop = _population(6, 21)
        fe = ReaderFrontEnd(noise_std=0.1)
        res = run_rateless_uplink(pop.tags, fe, np.random.default_rng(21))

        # Hand-rolled per-slot reference loop with the same rng discipline.
        config = BuzzConfig()
        k = len(pop.tags)
        density = config.data_density(k)
        rng = np.random.default_rng(21)
        dec = RatelessDecoder(
            seeds=[t.temp_id for t in pop.tags], channels=pop.channels,
            n_positions=pop.messages.shape[1], density=density,
            config=config, rng=np.random.default_rng(rng.integers(0, 2**63)),
            noise_std=fe.noise_std,
        )
        limit = config.max_data_slots(k)
        block_size = min(limit, RatelessDecoder.ROW_BLOCK)
        slot, done = 0, False
        while slot < limit and not done:
            block = range(slot, min(slot + block_size, limit))
            rows = dec.expected_rows(block)
            symbols = fe.observe_block(rows, pop.messages, pop.channels, rng)
            for off in range(rows.shape[0]):
                dec.add_slot(symbols[off], rows[off])
                slot += 1
                dec.try_decode()
                if dec.all_decoded:
                    done = True
                    break
        assert np.array_equal(res.decoded_mask, dec.decoded_mask)
        assert np.array_equal(res.messages, dec.messages())
        assert res.slots_used == dec.slots_collected
