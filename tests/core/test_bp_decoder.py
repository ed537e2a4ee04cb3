"""Tests for repro.core.bp_decoder — the bit-flipping BP decoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bp_decoder import PackedBitFlipDecoder
from repro.core.decoder_state import DecoderState
from repro.core.reference import BitFlipDecoder, decode_full_width


def _random_instance(rng, k=8, n_slots=14, density=0.4, noise=0.01):
    h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    # keep channels away from zero so the instance is decodable
    h += np.sign(h.real) * 0.5
    d = (rng.random((n_slots, k)) < density).astype(np.uint8)
    bits = (rng.random(k) < 0.5).astype(np.uint8)
    y = (d * h) @ bits + noise * (rng.standard_normal(n_slots) + 1j * rng.standard_normal(n_slots))
    return d, h, bits, y


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BitFlipDecoder(np.ones((3, 4), dtype=np.uint8), np.ones(3))

    def test_neighbour_structure(self):
        d = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        dec = BitFlipDecoder(d, np.ones(3))
        assert set(dec._nofn[0]) == {0, 1}
        assert set(dec._nofn[2]) == {2}


class TestDecode:
    def test_recovers_truth_overdetermined(self):
        rng = np.random.default_rng(0)
        d, h, bits, y = _random_instance(rng)
        outcome = BitFlipDecoder(d, h).decode_best_of(y, restarts=4, rng=rng)
        assert np.array_equal(outcome.bits, bits)
        assert outcome.converged

    def test_noiseless_residual_zero(self):
        rng = np.random.default_rng(1)
        d, h, bits, y = _random_instance(rng, noise=0.0)
        outcome = BitFlipDecoder(d, h).decode_best_of(y, restarts=4, rng=rng)
        assert outcome.residual_norm < 1e-9

    def test_warm_start_noop_when_correct(self):
        rng = np.random.default_rng(2)
        d, h, bits, y = _random_instance(rng)
        outcome = BitFlipDecoder(d, h).decode(y, init=bits)
        assert np.array_equal(outcome.bits, bits)
        assert outcome.flips == 0

    def test_monotone_error_decrease(self):
        """Every flip strictly reduces ‖DHb − y‖², so the final error can
        never exceed the initial error."""
        rng = np.random.default_rng(3)
        d, h, bits, y = _random_instance(rng)
        dec = BitFlipDecoder(d, h)
        init = (rng.random(8) < 0.5).astype(np.uint8)
        initial_error = np.linalg.norm((d * h) @ init - y)
        outcome = dec.decode(y, init=init)
        assert outcome.residual_norm <= initial_error + 1e-12

    def test_frozen_bits_never_flip(self):
        rng = np.random.default_rng(4)
        d, h, bits, y = _random_instance(rng)
        wrong = bits.copy()
        wrong[0] ^= 1  # freeze a deliberately wrong bit
        frozen = np.zeros(8, dtype=bool)
        frozen[0] = True
        outcome = BitFlipDecoder(d, h).decode(y, init=wrong, frozen=frozen)
        assert outcome.bits[0] == wrong[0]

    def test_frozen_without_values_rejected(self):
        rng = np.random.default_rng(5)
        d, h, _, y = _random_instance(rng)
        frozen = np.ones(8, dtype=bool)
        with pytest.raises(ValueError):
            BitFlipDecoder(d, h).decode(y, frozen=frozen, rng=rng)

    def test_random_init_requires_rng(self):
        rng = np.random.default_rng(6)
        d, h, _, y = _random_instance(rng)
        with pytest.raises(ValueError):
            BitFlipDecoder(d, h).decode(y)

    def test_zero_weight_tag_keeps_init(self):
        """A tag that never transmitted has no evidence; its bit must stay
        at the initial value rather than being guessed."""
        d = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        h = np.array([1.0, 2.0])
        y = np.array([1.0 + 0j, 1.0 + 0j])  # tag 0 sent b=1
        init = np.array([0, 1], dtype=np.uint8)
        outcome = BitFlipDecoder(d, h).decode(y, init=init)
        assert outcome.bits[0] == 1
        assert outcome.bits[1] == 1  # untouched init

    def test_pair_flip_escapes_cancelling_channels(self):
        """h0 ≈ −h1 creates a two-bit local minimum that single flips
        cannot leave — the pair-flip escape must find the truth when a
        disambiguating slot exists."""
        h = np.array([1.0 + 0.2j, -1.0 - 0.19j, 0.7j])
        d = np.array(
            [[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]], dtype=np.uint8
        )
        bits = np.array([1, 1, 0], dtype=np.uint8)
        y = (d * h) @ bits
        # start exactly in the joint-flipped local minimum
        init = np.array([0, 0, 0], dtype=np.uint8)
        outcome = BitFlipDecoder(d, h).decode(y, init=init)
        assert np.array_equal(outcome.bits, bits)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_property_fixed_point_is_local_minimum(self, seed):
        """At termination no single flip may further reduce the error."""
        rng = np.random.default_rng(seed)
        d, h, bits, y = _random_instance(rng, k=6, n_slots=10)
        dec = BitFlipDecoder(d, h)
        outcome = dec.decode(y, rng=rng)
        final_error = np.linalg.norm((d * h) @ outcome.bits - y) ** 2
        for i in range(6):
            flipped = outcome.bits.copy()
            flipped[i] ^= 1
            alt_error = np.linalg.norm((d * h) @ flipped - y) ** 2
            assert alt_error >= final_error - 1e-9


class TestDecodeBestOf:
    def test_exact_warm_start_still_draws_every_restart(self):
        """A warm start that already explains y exactly keeps its bits and
        its zero flips, and the decoder still draws all ``restarts`` (K,)
        inits: no restart can beat an exact residual, and a fixed draw
        count lets the packed kernel draw every init up front."""
        rng = np.random.default_rng(10)
        d, h, bits, y = _random_instance(rng, noise=0.0)
        reference = np.random.default_rng(123)
        reference.random(8 * 5)  # what five restarts consume
        expected_next = reference.random()
        probe = np.random.default_rng(123)
        outcome = BitFlipDecoder(d, h).decode_best_of(y, restarts=5, rng=probe, init=bits)
        assert outcome.residual_norm == 0.0
        assert np.array_equal(outcome.bits, bits)
        assert outcome.flips == 0
        assert probe.random() == expected_next

    def test_restarts_consume_rng_when_residual_poor(self):
        """Every restart draws one (K,) init from the shared generator."""
        rng = np.random.default_rng(11)
        d, h, bits, y = _random_instance(rng)
        reference = np.random.default_rng(55)
        reference.random(8 * 3)  # what three restarts consume
        expected_next = reference.random()
        probe = np.random.default_rng(55)
        BitFlipDecoder(d, h).decode_best_of(y, restarts=3, rng=probe, init=bits)
        assert probe.random() == expected_next

    def test_restart_escapes_bad_warm_start(self):
        """A warm start stuck in a local minimum must be beaten by some
        random restart on a well-conditioned instance."""
        rng = np.random.default_rng(12)
        d, h, bits, y = _random_instance(rng, noise=0.0)
        dec = BitFlipDecoder(d, h)
        bad = bits ^ 1  # all-flipped start
        warm_only = dec.decode(y, init=bad)
        restarted = dec.decode_best_of(y, restarts=8, rng=np.random.default_rng(0), init=bad)
        assert restarted.residual_norm <= warm_only.residual_norm
        assert restarted.residual_norm < 1e-9

    def test_restarts_preserve_frozen_values(self):
        """Random restart inits must keep CRC-frozen bits at their pinned
        values — even deliberately wrong ones."""
        rng = np.random.default_rng(13)
        d, h, bits, y = _random_instance(rng)
        wrong = bits.copy()
        wrong[2] ^= 1
        frozen = np.zeros(8, dtype=bool)
        frozen[2] = True
        outcome = BitFlipDecoder(d, h).decode_best_of(
            y, restarts=6, rng=np.random.default_rng(1), init=wrong, frozen=frozen
        )
        assert outcome.bits[2] == wrong[2]

    def test_zero_restarts_is_plain_decode(self):
        rng = np.random.default_rng(14)
        d, h, bits, y = _random_instance(rng)
        init = (rng.random(8) < 0.5).astype(np.uint8)
        plain = BitFlipDecoder(d, h).decode(y, init=init)
        best = BitFlipDecoder(d, h).decode_best_of(
            y, restarts=0, rng=np.random.default_rng(2), init=init
        )
        assert np.array_equal(plain.bits, best.bits)
        assert plain.residual_norm == best.residual_norm


def _batch_instance(rng, k=10, n_slots=16, p=8, density=0.35, noise=0.1):
    h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    h += np.sign(h.real) * 0.5
    d = (rng.random((n_slots, k)) < density).astype(np.uint8)
    truth = (rng.random((k, p)) < 0.5).astype(np.uint8)
    ys = (d * h) @ truth.astype(float) + noise * (
        rng.standard_normal((n_slots, p)) + 1j * rng.standard_normal((n_slots, p))
    )
    init = (rng.random((k, p)) < 0.5).astype(np.uint8)
    return d, h, truth, ys, init


#: Seeds of the noiseless instance below where some position's best
#: residual turns exact before its last restart draw (9 of seeds 0–99 do).
_EARLY_EXACT_SEEDS = (10, 16, 22, 30)


class TestBatchedDecoder:
    """The packed kernel's batched API must be a drop-in for M
    per-position decodes."""

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_full_width(
                np.ones((3, 4), dtype=np.uint8), np.ones(3),
                np.zeros((3, 1), dtype=complex), np.zeros((4, 1), dtype=np.uint8),
            )

    def test_ys_shape_validated(self):
        d, h = np.ones((3, 2), dtype=np.uint8), np.ones(2)
        with pytest.raises(ValueError):
            decode_full_width(d, h, np.zeros((4, 5), dtype=complex), np.zeros((2, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            decode_full_width(d, h, np.zeros((3, 5), dtype=complex), np.zeros((2, 4), dtype=np.uint8))

    def test_recovers_truth_all_positions(self):
        rng = np.random.default_rng(20)
        d, h, truth, ys, init = _batch_instance(rng, noise=0.01)
        out = decode_full_width(d, h, ys, init, restarts=6, rng=rng)
        assert np.array_equal(out.bits, truth)
        assert bool(out.converged.all())

    @pytest.mark.parametrize("seed", range(6))
    def test_golden_seed_equivalence_noisy(self, seed):
        """Packed kernel ≡ per-position decoder, bits and RNG stream both:
        the property that keeps every pre-refactor campaign golden green."""
        rng = np.random.default_rng(seed)
        d, h, _, ys, init = _batch_instance(rng)
        frozen = np.zeros(10, dtype=bool)
        frozen[: 2] = rng.random(2) < 0.5
        rng_ref = np.random.default_rng(900 + seed)
        rng_bat = np.random.default_rng(900 + seed)
        ref = BitFlipDecoder(d, h)
        expected = np.empty_like(init)
        for pos in range(init.shape[1]):
            expected[:, pos] = ref.decode_best_of(
                ys[:, pos], restarts=4, rng=rng_ref, init=init[:, pos], frozen=frozen
            ).bits
        out = decode_full_width(d, h, ys, init, frozen, restarts=4, rng=rng_bat)
        # The same instance with its frozen columns peeled from a
        # persistent state, decoded by the state-bound kernel.
        rng_state = np.random.default_rng(900 + seed)
        state = DecoderState(h, init)
        for row, symbols in zip(d, ys):
            state.append_slot(row, symbols)
        state.peel(np.flatnonzero(frozen))
        bound = PackedBitFlipDecoder.from_state(state).decode_best_of_state(4, rng_state)
        assert np.array_equal(out.bits, expected)
        assert np.array_equal(bound.bits, expected[state.active_idx])
        assert rng_state.bit_generator.state == rng_ref.bit_generator.state
        assert rng_ref.random() == rng_bat.random()  # streams still in lockstep

    @pytest.mark.parametrize("case", range(len(_EARLY_EXACT_SEEDS)))
    def test_golden_seed_equivalence_noiseless(self, case):
        """Noiseless inputs turn exact mid-restarts, and every position
        still draws all its restarts; the from-scratch and state-bound
        entry points must both equal the per-position decoder."""
        seed = _EARLY_EXACT_SEEDS[case]
        rng = np.random.default_rng(100 + seed)
        d, h, _, ys, init = _batch_instance(rng, k=6, n_slots=6, p=8, noise=0.0)
        rng_ref, rng_bat, rng_state = (
            np.random.default_rng(300 + seed) for _ in range(3)
        )
        ref = BitFlipDecoder(d, h)
        expected = np.empty_like(init)
        for pos in range(init.shape[1]):
            expected[:, pos] = ref.decode_best_of(
                ys[:, pos], restarts=6, rng=rng_ref, init=init[:, pos],
                frozen=np.zeros(6, dtype=bool),
            ).bits
        out = decode_full_width(
            d, h, ys, init, np.zeros(6, dtype=bool), restarts=6, rng=rng_bat
        )
        assert np.array_equal(out.bits, expected)
        assert rng_ref.bit_generator.state == rng_bat.bit_generator.state

        state = DecoderState(h, init)
        for row, symbols in zip(d, ys):
            state.append_slot(row, symbols)
        bound = PackedBitFlipDecoder.from_state(state).decode_best_of_state(6, rng_state)
        assert np.array_equal(bound.bits, expected)
        assert rng_state.bit_generator.state == rng_bat.bit_generator.state

    def test_restart_outcome_is_self_consistent(self):
        """A restart winner's residual and correlations are its own, not
        the warm start's: ``residual = ys − (D∘h)·bits`` and
        ``corr = Dᵀ·conj(residual)``."""
        won = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            d, h, _, ys, init = _batch_instance(rng, k=12, n_slots=10, noise=0.3)
            warm = decode_full_width(d, h, ys, init)
            out = decode_full_width(
                d, h, ys, init, restarts=4, rng=np.random.default_rng(900 + seed)
            )
            won += not np.array_equal(out.bits, warm.bits)
            np.testing.assert_allclose(
                out.residual, ys - (d * h) @ out.bits.astype(float), rtol=1e-12
            )
            # Incremental updates leave ulp-level drift on near-zero sums.
            corr = d.T.astype(float) @ np.conj(out.residual)
            np.testing.assert_allclose(out.corr_re, corr.real, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out.corr_im, corr.imag, rtol=1e-12, atol=1e-12)
        assert won > 5

    def test_pair_flip_escapes_cancelling_channels(self):
        """The closed-form pair scan must take the same escape as the
        per-position decoder's quadratic scan."""
        h = np.array([1.0 + 0.2j, -1.0 - 0.19j, 0.7j])
        d = np.array(
            [[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]], dtype=np.uint8
        )
        bits = np.array([1, 1, 0], dtype=np.uint8)
        ys = ((d * h) @ bits)[:, None]
        out = decode_full_width(d, h, ys, np.zeros((3, 1), dtype=np.uint8))
        assert np.array_equal(out.bits[:, 0], bits)

    def test_frozen_bits_never_flip(self):
        rng = np.random.default_rng(21)
        d, h, truth, ys, _ = _batch_instance(rng)
        wrong = truth.copy()
        wrong[0, :] ^= 1
        frozen = np.zeros(10, dtype=bool)
        frozen[0] = True
        out = decode_full_width(d, h, ys, wrong, frozen)
        assert np.array_equal(out.bits[0, :], wrong[0, :])

    def test_positions_freeze_independently(self):
        """One hard column must not stop easy columns from converging."""
        rng = np.random.default_rng(22)
        d, h, truth, ys, init = _batch_instance(rng, noise=0.01)
        out = decode_full_width(d, h, ys, truth, max_flips=1)
        # warm-started at the truth every column stalls at zero flips
        assert np.array_equal(out.bits, truth)
        assert bool(out.converged.all())

    def test_flip_budget_reported_per_position(self):
        rng = np.random.default_rng(23)
        d, h, _, ys, init = _batch_instance(rng)
        out = decode_full_width(d, h, ys, init, max_flips=1)
        assert out.flips.max() <= 1
        assert out.converged.shape == (8,)

    def test_empty_batch(self):
        out = decode_full_width(
            np.ones((3, 2), dtype=np.uint8), np.ones(2),
            np.zeros((3, 0), dtype=complex), np.zeros((2, 0), dtype=np.uint8),
        )
        assert out.bits.shape == (2, 0)
        assert out.flips.size == 0


class TestIncrementalGains:
    def test_incremental_matches_full_recompute(self):
        """The neighbours-of-neighbours update must agree with recomputing
        every gain from scratch after each flip."""
        rng = np.random.default_rng(7)
        d, h, bits, y = _random_instance(rng, k=6, n_slots=12)
        dec = BitFlipDecoder(d, h)
        b = (rng.random(6) < 0.5).astype(np.uint8)
        frozen = np.zeros(6, dtype=bool)
        residual = y - dec._signal @ b.astype(float)
        gains = dec._all_gains(residual, b, frozen)
        # flip the best bit manually, update incrementally, compare to full
        best = int(np.argmax(gains))
        delta = h[best] * (1.0 - 2.0 * float(b[best]))
        residual[dec._rows_of[best]] -= delta
        b[best] ^= 1
        dec._update_gains(gains, dec._nofn[best], residual, b, frozen)
        full = dec._all_gains(residual, b, frozen)
        affected = dec._nofn[best]
        assert np.allclose(gains[affected], full[affected])


class TestPairFlipCandidateFilter:
    """The capped, batched resolver on the peeled problem must pick the
    full scan's pair, bit for bit, ties and frozen masks included."""

    @staticmethod
    def _scan_instance(rng, k, ties=False):
        h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if ties:
            # Duplicated channels + integer overlaps manufacture exact
            # float ties in the pair-gain matrix, exercising the
            # first-maximum row-major tie-break.
            h = np.repeat(h[: (k + 1) // 2], 2)[:k]
        d = (rng.random((3 * k, k)) < 0.4).astype(np.uint8)
        df = d.astype(float)
        overlap = df.T @ df
        bits = (rng.random(k) < 0.5).astype(np.uint8)
        delta = h * (1.0 - 2.0 * bits.astype(float))
        # Gains straddle zero, biased low, so a healthy share of
        # instances stall (scan returns None) and the rest escape.
        gains = (rng.standard_normal(k) - 0.6) * np.abs(h) ** 2
        if ties:
            gains = np.repeat(gains[: (k + 1) // 2], 2)[:k]
        frozen = rng.random(k) < 0.25
        gains[frozen] = -np.inf
        return gains, delta, overlap, frozen

    @staticmethod
    def _resolve(gains, delta, overlap, frozen):
        """``resolve_stalls`` on the peeled one-column problem, as a
        full-problem pair or ``None``."""
        from repro.core.bp_decoder import cross_magnitudes, pair_bounds, resolve_stalls

        free = np.flatnonzero(~frozen)
        ovf = overlap[np.ix_(free, free)]
        co, cap = pair_bounds(cross_magnitudes(delta[free]), ovf)
        # The flip deltas stand in for the channels, with unit signs.
        (i, j), = resolve_stalls(
            gains[free, None], delta[free], np.ones((free.size, 1)), ovf, cap, co
        )
        return None if i < 0 else (int(free[i]), int(free[j]))

    def test_capped_scan_equals_full_scan_fuzz(self):
        from repro.core.reference import full_pair_scan

        rng = np.random.default_rng(42)
        outcomes = {None: 0, "pair": 0}
        for trial in range(300):
            k = int(rng.integers(2, 24))
            gains, delta, overlap, frozen = self._scan_instance(
                rng, k, ties=bool(trial % 3 == 0)
            )
            full = full_pair_scan(gains, delta, overlap, frozen)
            capped = self._resolve(gains, delta, overlap, frozen)
            assert capped == full, f"trial {trial}: {capped} != {full}"
            outcomes["pair" if full else None] += 1
        # The fuzz must exercise both branches to mean anything.
        assert outcomes[None] > 20
        assert outcomes["pair"] > 20

    def test_capped_scan_all_frozen_and_tiny(self):
        from repro.core.reference import full_pair_scan

        rng = np.random.default_rng(0)
        gains, delta, overlap, frozen = self._scan_instance(rng, 5)
        all_frozen = np.ones(5, dtype=bool)
        one_free = all_frozen.copy()
        one_free[2] = False
        for mask in (all_frozen, one_free):
            assert full_pair_scan(gains, delta, overlap, mask) is None
            assert self._resolve(gains, delta, overlap, mask) is None
