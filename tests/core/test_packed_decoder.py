"""Equivalence and contract tests for the packed decode kernel.

`PackedBitFlipDecoder` must reproduce the scalar per-position
`BitFlipDecoder` run position by position with a shared generator: same
bits, same flip counts, same converged flags — including through
`decode_best_of`'s restart RNG draw order, which the rateless session loop
leans on for reproducibility — with residual norms equal to float
precision. These tests pin that on randomised instances (hypothesis), pin
the kernel contract the rateless loop and its instrumentation rely on, and
pin a golden-seed end-to-end buzz session against the rebuild reference.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bp_decoder
from repro.core.bp_decoder import PackedBitFlipDecoder, resolve_kernel
from repro.core.config import BuzzConfig
from repro.core.reference import BitFlipDecoder, RebuildRatelessDecoder, decode_full_width
from repro.engine.schemes import get_scheme
from repro.network.scenarios import default_uplink_scenario
from repro.nodes.reader import ReaderFrontEnd
from repro.utils.rng import SeedSequenceFactory


def _instance(seed, max_m=8):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 14))
    m = int(rng.integers(1, max_m + 1))
    slots = int(rng.integers(k, 3 * k + 4))
    d = (rng.random((slots, k)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
    h = rng.normal(size=k) + 1j * rng.normal(size=k)
    ys = rng.normal(size=(slots, m)) + 1j * rng.normal(size=(slots, m))
    init = (rng.random((k, m)) < 0.5).astype(np.uint8)
    frozen = rng.random(k) < 0.25 if rng.random() < 0.5 else None
    return d, h, ys, init, frozen


def _scalar(d, h, ys, init, frozen, max_flips, restarts=None, rng=None):
    """The scalar decoder run position by position (one shared ``rng``)."""
    decoder = BitFlipDecoder(d, h, max_flips=max_flips)
    outs = []
    for pos in range(ys.shape[1]):
        if restarts is None:
            outs.append(decoder.decode(ys[:, pos], init=init[:, pos], frozen=frozen))
        else:
            outs.append(decoder.decode_best_of(
                ys[:, pos], restarts=restarts, rng=rng, init=init[:, pos], frozen=frozen
            ))
    return outs


def _assert_matches_scalar(packed, scalar, flips=True):
    """Bits, flips and converged flags exact; norms to float precision."""
    assert np.array_equal(packed.bits, np.column_stack([o.bits for o in scalar]))
    if flips:
        assert packed.flips.tolist() == [o.flips for o in scalar]
    assert packed.converged.tolist() == [o.converged for o in scalar]
    np.testing.assert_allclose(
        packed.residual_norms, [o.residual_norm for o in scalar], rtol=1e-12, atol=0
    )


class TestPackedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_decode_matches_scalar(self, seed):
        d, h, ys, init, frozen = _instance(seed)
        ref = _scalar(d, h, ys, init, frozen, max_flips=40)
        got = decode_full_width(d, h, ys, init, frozen, max_flips=40)
        _assert_matches_scalar(got, ref)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_decode_best_of_preserves_restart_draw_order(self, seed):
        """Restart trials often land on the local minimum the warm start
        already holds; which of those equal-bits trials wins is then an
        ulp-level norm tie, so the winner's flip count is not compared."""
        d, h, ys, init, frozen = _instance(seed)
        ref_rng = np.random.default_rng(seed ^ 0x5A5A)
        got_rng = np.random.default_rng(seed ^ 0x5A5A)
        ref = _scalar(d, h, ys, init, frozen, max_flips=40, restarts=3, rng=ref_rng)
        got = decode_full_width(d, h, ys, init, frozen, restarts=3, rng=got_rng, max_flips=40)
        _assert_matches_scalar(got, ref, flips=False)
        # RNG lockstep: both consumed the generator identically.
        assert ref_rng.bit_generator.state == got_rng.bit_generator.state

    def test_positions_past_one_word_boundary(self):
        """M > 64 exercises multi-word packed rows end to end."""
        rng = np.random.default_rng(11)
        k, m, slots = 6, 70, 18
        d = (rng.random((slots, k)) < 0.4).astype(np.uint8)
        h = rng.normal(size=k) + 1j * rng.normal(size=k)
        ys = rng.normal(size=(slots, m)) + 1j * rng.normal(size=(slots, m))
        init = (rng.random((k, m)) < 0.5).astype(np.uint8)
        ref = _scalar(d, h, ys, init, None, max_flips=10_000)
        got = decode_full_width(d, h, ys, init)
        _assert_matches_scalar(got, ref)

    def test_zero_positions(self):
        d, h, _, _, _ = _instance(3)
        out = decode_full_width(d, h, np.zeros((d.shape[0], 0)), np.zeros((d.shape[1], 0), dtype=np.uint8))
        assert out.bits.shape == (d.shape[1], 0)
        assert out.residual_norms.size == 0


class TestBoundRouteAgainstScalar:
    """An early-session instance — K = 120 tags, only 0.2·K rows at the
    data density, random init — stalls with many candidates per column,
    so the stall resolver takes its per-column bound route
    (``best_pair_flip``) inside a real decode. The scalar decoder's full
    pair scan shares no code with that route and must agree with every
    decision."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_route_decode_matches_scalar(self, monkeypatch, seed):
        calls = []
        best_pair_flip = bp_decoder.best_pair_flip

        def counted(*args):
            calls.append(args[0].size)
            return best_pair_flip(*args)

        monkeypatch.setattr(bp_decoder, "best_pair_flip", counted)
        rng = np.random.default_rng(seed)
        k, m = 120, 8
        slots = k // 5
        d = (rng.random((slots, k)) < BuzzConfig().data_density(k)).astype(np.uint8)
        h = rng.normal(size=k) + 1j * rng.normal(size=k)
        truth = (rng.random((k, m)) < 0.5).astype(np.uint8)
        noise = rng.normal(size=(slots, m)) + 1j * rng.normal(size=(slots, m))
        ys = (d * h) @ truth.astype(float) + 0.1 * noise
        init = (rng.random((k, m)) < 0.5).astype(np.uint8)
        got = decode_full_width(d, h, ys, init)
        _assert_matches_scalar(got, _scalar(d, h, ys, init, None, max_flips=10_000))
        assert calls, "the decode never took the bound route"


def _noiseless(seed, k, slots, m, density):
    """A noiseless instance: ``ys`` is exactly ``D·diag(h)·truth``."""
    rng = np.random.default_rng(seed)
    d = (rng.random((slots, k)) < density).astype(np.uint8)
    h = rng.normal(size=k) + 1j * rng.normal(size=k)
    truth = (rng.random((k, m)) < 0.5).astype(np.uint8)
    ys = (d * h) @ truth.astype(float)
    init = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return d, h, ys, init, truth


class TestFusedRestart:
    """``decode_best_of_state`` solves the warm columns and every restart
    trial as one batch: every position draws exactly R inits, whatever
    its residuals. It must match the scalar ``decode_best_of`` in bits,
    flips and generator end state.

    Flips are comparable only where no two trials of a position reach the
    same bits: between such trials the winner is an ulp-level norm tie
    (see ``test_decode_best_of_preserves_restart_draw_order``). The
    instances below have no such tie."""

    R = 4

    def _decode(self, monkeypatch, d, h, ys, init, seed):
        """Returns ``(packed, generator, round_loop_norms)``: one entry of
        per-column final residual norms per round loop run."""
        loops = []
        original = PackedBitFlipDecoder._run_rounds

        def counted(self, *args):
            original(self, *args)
            loops.append(np.linalg.norm(args[3], axis=0))

        monkeypatch.setattr(PackedBitFlipDecoder, "_run_rounds", counted)
        ref_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        ref = _scalar(d, h, ys, init, None, max_flips=10_000, restarts=self.R, rng=ref_rng)
        got = decode_full_width(d, h, ys, init, restarts=self.R, rng=got_rng)
        assert np.array_equal(got.bits, np.column_stack([o.bits for o in ref]))
        assert got.flips.tolist() == [o.flips for o in ref]
        assert got.converged.tolist() == [o.converged for o in ref]
        # Noiseless optima sit at residual 0 ± a few ulps.
        np.testing.assert_allclose(
            got.residual_norms, [o.residual_norm for o in ref], rtol=1e-12, atol=1e-12
        )
        assert ref_rng.bit_generator.state == got_rng.bit_generator.state
        return got, got_rng, loops

    def test_noisy_instance_takes_one_batch(self, monkeypatch):
        d, h, ys, init, frozen = _instance(17)
        assert frozen is None
        _, _, loops = self._decode(monkeypatch, d, h, ys, init, seed=28)
        # One round loop over the warm columns and all M·R trials.
        assert [n.size for n in loops] == [ys.shape[1] * (1 + self.R)]
        assert not np.any(loops[0] <= 1e-9)

    def _noiseless_batch(self, monkeypatch):
        """Columns 0 and 1 start at the truth, so their warm solves are
        exact; position 2's warm solve is not, but one of its trials turns
        exact before its last draw. Returns ``(got, warm, trials)`` after
        checking that every position drew all R inits, in one batch."""
        d, h, ys, init, truth = _noiseless(14, k=12, slots=12, m=4, density=0.4)
        init[:, :2] = truth[:, :2]
        m, k = init.shape[1], d.shape[1]
        got, got_rng, loops = self._decode(monkeypatch, d, h, ys, init, seed=14)
        assert len(loops) == 1
        # Exactly M·R·k_full uniforms, whatever the residuals.
        expected = np.random.default_rng(14)
        expected.random(m * self.R * k)
        assert got_rng.bit_generator.state == expected.bit_generator.state
        return got, loops[0][:m], loops[0][m:].reshape(m, self.R)

    def test_exact_warm_columns_replay(self, monkeypatch):
        """Exact warm columns are no longer replayed one by one: they keep
        their warm bits with no flips and still draw all R inits."""
        got, warm, _ = self._noiseless_batch(monkeypatch)
        assert np.all(warm[:2] <= 1e-9)
        assert got.flips[:2].tolist() == [0, 0]
        assert np.all(got.residual_norms[:2] <= 1e-9)

    def test_trial_exact_before_last_draw_replays(self, monkeypatch):
        """A trial that turns exact before the last draw no longer stops
        its position drawing: the position's later trials run in the same
        batch and it ends exact."""
        got, warm, trials = self._noiseless_batch(monkeypatch)
        assert warm[2] > 1e-9 and np.any(trials[2, :-1] <= 1e-9)
        assert got.residual_norms[2] <= 1e-9


class TestKernelContract:
    def test_resolve_kernel_is_packed(self):
        assert resolve_kernel() is PackedBitFlipDecoder

    def test_try_decode_reaches_decode_best_of_state(self, monkeypatch):
        """The rateless loop decodes through the method the benchmark
        tracer wraps, on the class resolve_kernel() returns."""
        from repro.core.rateless import run_rateless_uplink
        from repro.nodes.population import make_population

        calls = []
        original = PackedBitFlipDecoder.decode_best_of_state

        def wrapped(self, *args, **kwargs):
            calls.append(type(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(resolve_kernel(), "decode_best_of_state", wrapped)
        pop = make_population(5, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        for tag in pop.tags:
            tag.draw_temp_id(250, rng)
        result = run_rateless_uplink(pop.tags, ReaderFrontEnd(noise_std=0.1), rng)
        assert result.progress
        assert calls and set(calls) == {PackedBitFlipDecoder}

    def test_campaign_never_imports_the_reference(self):
        """The rebuild reference is a test oracle: a campaign cell (which
        runs the rateless loop) must not load it."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.engine.campaign import CampaignSpec, run_campaign\n"
            "from repro.network.scenarios import default_uplink_scenario\n"
            "spec = CampaignSpec(scenario=default_uplink_scenario(6), root_seed=3,\n"
            "                    n_locations=1, n_traces=1, schemes=('buzz',))\n"
            "result = run_campaign(spec, jobs=1)\n"
            "print(len(result.runs), int(result.runs[0].slots_used) > 0)\n"
            "print('repro.core.reference' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        assert out.stdout.split() == ["1", "True", "False"]


class TestGoldenSessionEquivalence:
    def _run_buzz_e2e(self, seed=2024, n_tags=6):
        scenario = default_uplink_scenario(n_tags)
        seeds = SeedSequenceFactory(seed)
        population = scenario.draw_population(seeds.stream("location", 0))
        front_end = ReaderFrontEnd(noise_std=population.noise_std)
        return get_scheme("buzz-e2e").run(
            population, front_end, seeds.stream("trace", 0, 0, "buzz-e2e"),
            config=BuzzConfig(),
        )

    def test_buzz_e2e_session_identical_across_state_paths(self, monkeypatch):
        """Golden seed: a full identification+data session decodes to the
        same transcript on the persistent state and on the rebuild
        reference."""
        ref_state = self._run_buzz_e2e()
        monkeypatch.setattr("repro.core.rateless.RatelessDecoder", RebuildRatelessDecoder)
        ref = self._run_buzz_e2e()
        assert ref.message_loss == ref_state.message_loss
        assert ref.slots_used == ref_state.slots_used
        assert ref.bit_errors == ref_state.bit_errors
        assert ref.duration_s == ref_state.duration_s
        assert list(ref.transmissions) == list(ref_state.transmissions)
