"""Tests for repro.nodes.reader."""

import numpy as np
import pytest

from repro.nodes.reader import ReaderFrontEnd


class TestReaderFrontEnd:
    def test_observe_shapes(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        y = fe.observe(np.eye(4), np.ones(4), np.random.default_rng(0))
        assert y.shape == (4,)

    def test_occupied_detects_signal(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        rng = np.random.default_rng(1)
        y = fe.observe(np.eye(4), np.full(4, 1.0 + 0j), rng)
        assert fe.occupied(y).all()

    def test_empty_slots_mostly_silent(self):
        fe = ReaderFrontEnd(noise_std=0.1)
        rng = np.random.default_rng(2)
        y = fe.observe_empty(10_000, rng)
        false_rate = fe.occupied(y).mean()
        # P(|n|² > 4σ²) = e⁻⁴ ≈ 1.8 % for complex Gaussian noise.
        assert false_rate == pytest.approx(np.exp(-4.0), rel=0.2)

    def test_empty_fraction(self):
        fe = ReaderFrontEnd(noise_std=0.01)
        rng = np.random.default_rng(3)
        tx = np.zeros((200, 2))
        tx[:100, 0] = 1  # half the slots occupied by a strong tag
        y = fe.observe(tx, np.array([5.0, 0.0]), rng)
        # ~e⁻⁴ of the empty slots false-trigger, so allow a small bias.
        assert fe.empty_fraction(y) == pytest.approx(0.5, abs=0.03)

    def test_weak_tag_detected_above_threshold(self):
        """A tag ~9 dB above the noise floor is detected most of the time
        (P(|h+n| < 2σ) ≈ 9 % at |h| = 2.8σ); Stage 3's residual-driven
        augmentation covers the residual misses."""
        fe = ReaderFrontEnd(noise_std=0.1)
        rng = np.random.default_rng(4)
        h = 0.28  # ≈ 9 dB
        y = fe.observe(np.ones((2000, 1)), np.array([h]), rng)
        assert fe.occupied(y).mean() > 0.85

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            ReaderFrontEnd(noise_std=0.0)
