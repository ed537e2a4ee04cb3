"""Tests for repro.coding.crc."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.coding.crc import (
    CRC5_GEN2,
    CRC16_GEN2,
    CrcSpec,
    crc_append,
    crc_check,
    crc_check_matrix,
    crc_compute,
)
from repro.utils.bits import random_bits

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


class TestCrcSpec:
    def test_width_positive(self):
        with pytest.raises(ValueError):
            CrcSpec("bad", width=0, poly=0, init=0, xor_out=0)

    def test_fields_fit_width(self):
        with pytest.raises(ValueError):
            CrcSpec("bad", width=4, poly=0x1F, init=0, xor_out=0)


class TestCrc5:
    def test_width(self):
        assert crc_compute([1, 0, 1], CRC5_GEN2).size == 5

    def test_deterministic(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert np.array_equal(crc_compute(bits), crc_compute(bits))

    @given(bit_lists)
    def test_append_then_check(self, bits):
        assert crc_check(crc_append(bits, CRC5_GEN2), CRC5_GEN2)

    @given(bit_lists, st.integers(min_value=0, max_value=200))
    def test_single_bit_error_detected(self, bits, flip_seed):
        msg = crc_append(bits, CRC5_GEN2)
        corrupted = msg.copy()
        corrupted[flip_seed % msg.size] ^= 1
        assert not crc_check(corrupted, CRC5_GEN2)

    def test_burst_error_within_width_detected(self):
        # CRC-5 detects all burst errors of length <= 5.
        msg = crc_append(random_bits(32, np.random.default_rng(0)), CRC5_GEN2)
        for start in range(msg.size - 5):
            corrupted = msg.copy()
            corrupted[start : start + 5] ^= 1
            assert not crc_check(corrupted, CRC5_GEN2)

    def test_random_garbage_pass_rate_near_2_pow_minus_5(self):
        rng = np.random.default_rng(1)
        passes = sum(
            crc_check(random_bits(37, rng), CRC5_GEN2) for _ in range(20_000)
        )
        rate = passes / 20_000
        assert rate == pytest.approx(1 / 32, rel=0.25)

    def test_too_short_message_fails(self):
        assert not crc_check([1, 0, 1], CRC5_GEN2)


class TestCrc16:
    @given(bit_lists)
    def test_append_then_check(self, bits):
        assert crc_check(crc_append(bits, CRC16_GEN2), CRC16_GEN2)

    def test_single_flip_detected(self):
        msg = crc_append(random_bits(64, np.random.default_rng(2)), CRC16_GEN2)
        for pos in range(0, msg.size, 7):
            corrupted = msg.copy()
            corrupted[pos] ^= 1
            assert not crc_check(corrupted, CRC16_GEN2)

    def test_known_gen2_vector(self):
        # CRC-16/EPC of an empty register path: check self-consistency of
        # the preset/inversion conventions by verifying a two-stage append.
        payload = random_bits(16, np.random.default_rng(3))
        once = crc_append(payload, CRC16_GEN2)
        assert once.size == 32
        assert crc_check(once, CRC16_GEN2)


class TestCrcCheckMatrix:
    """The batched CRC must be bit-identical to the scalar reference."""

    @pytest.mark.parametrize("spec", [CRC5_GEN2, CRC16_GEN2], ids=lambda s: s.name)
    def test_matches_scalar_on_random_matrix(self, spec):
        rng = np.random.default_rng(7)
        # Mix of valid messages and raw garbage rows.
        rows = [crc_append(random_bits(32, rng), spec) for _ in range(20)]
        rows += [random_bits(32 + spec.width, rng) for _ in range(20)]
        matrix = np.stack(rows)
        rng.shuffle(matrix)
        expected = np.array([crc_check(row, spec) for row in matrix])
        assert np.array_equal(crc_check_matrix(matrix, spec), expected)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_scalar_property(self, seed):
        rng = np.random.default_rng(seed)
        matrix = random_bits(8 * 37, rng).reshape(8, 37)
        expected = np.array([crc_check(row, CRC5_GEN2) for row in matrix])
        assert np.array_equal(crc_check_matrix(matrix, CRC5_GEN2), expected)

    def test_empty_matrix_gives_empty_mask(self):
        mask = crc_check_matrix(np.zeros((0, 37), dtype=np.uint8), CRC5_GEN2)
        assert mask.shape == (0,) and mask.dtype == bool

    def test_valid_rows_pass_corrupted_rows_fail(self):
        rng = np.random.default_rng(11)
        matrix = np.stack([crc_append(random_bits(24, rng), CRC5_GEN2) for _ in range(6)])
        assert crc_check_matrix(matrix, CRC5_GEN2).all()
        matrix[3, 5] ^= 1
        result = crc_check_matrix(matrix, CRC5_GEN2)
        assert not result[3]
        assert result.sum() == 5

    def test_single_row_input(self):
        msg = crc_append([1, 0, 1, 1], CRC5_GEN2)
        assert crc_check_matrix(msg.reshape(1, -1), CRC5_GEN2).all()

    def test_too_short_rows_all_fail(self):
        assert not crc_check_matrix(np.zeros((3, 2), dtype=np.uint8), CRC5_GEN2).any()

    def test_non_bit_values_rejected_like_scalar_path(self):
        with pytest.raises(ValueError, match="0 and 1"):
            crc_check_matrix(np.full((2, 37), 2), CRC5_GEN2)
        with pytest.raises(ValueError, match="0 and 1"):
            crc_check_matrix(np.full((1, 37), -1), CRC5_GEN2)
