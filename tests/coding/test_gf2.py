"""Property tests for the bit-packed GF(2) kernels (hypothesis).

The packed decoder and CRC paths rest on three exactness claims this file
pins under randomised inputs rather than golden seeds:

* :func:`pack_rows` lays out any 0/1 matrix in the documented word order
  for any bit length, including lengths that are not a multiple of 64;
* :func:`popcount` is identical between the native ``np.bitwise_count``
  ufunc and the byte-lookup-table fallback older numpys must use;
* GF(2) inner products and CRC checks over packed words agree bit for bit
  with their dense counterparts, for both Gen-2 CRC specs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.coding.gf2 as gf2
from repro.coding.crc import CRC5_GEN2, CRC16_GEN2, crc_append, crc_check
from repro.coding.gf2 import (
    crc_check_packed,
    gf2_dot_packed,
    pack_rows,
    packed_words,
    popcount,
)
from repro.utils.bits import random_bits

bit_matrices = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(
    lambda args: (np.random.default_rng(args[2]).random((args[0], args[1])) < 0.5).astype(
        np.uint8
    )
)


class TestPacking:
    def test_packed_words_boundaries(self):
        assert packed_words(0) == 0
        assert packed_words(1) == 1
        assert packed_words(64) == 1
        assert packed_words(65) == 2

    @settings(max_examples=60, deadline=None)
    @given(bit_matrices)
    def test_pack_unpack_round_trip(self, bits):
        """Every word equals the sum of its bits' powers of two, built
        here one Python int at a time."""
        n = bits.shape[-1]
        words = pack_rows(bits)
        assert words.dtype == np.uint64
        assert words.shape == bits.shape[:-1] + (packed_words(n),)
        for r, row in enumerate(bits):
            expected = [0] * packed_words(n)
            for m in np.flatnonzero(row):
                expected[m // 64] |= 1 << (int(m) % 64)
            assert [int(w) for w in words[r]] == expected

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=130))
    def test_word_layout_bit_m_lands_in_word_m_div_64(self, n):
        for m in (0, n // 2, n - 1):
            one_hot = np.zeros(n, dtype=np.uint8)
            one_hot[m] = 1
            words = pack_rows(one_hot)
            assert words[m // 64] == np.uint64(1) << np.uint64(m % 64)
            assert (np.delete(words, m // 64) == 0).all()

    def test_pack_rejects_non_binary(self):
        import pytest

        with pytest.raises(ValueError):
            pack_rows(np.array([0, 1, 2]))

    @settings(max_examples=40, deadline=None)
    @given(bit_matrices)
    def test_popcount_fallback_matches_native(self, bits):
        words = pack_rows(bits)
        native = popcount(words)
        try:
            gf2.HAVE_BITWISE_COUNT = False
            fallback = popcount(words)
        finally:
            gf2.HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
        assert np.array_equal(native, fallback)
        assert np.array_equal(native.astype(int).sum(axis=-1), bits.sum(axis=-1))

    @settings(max_examples=40, deadline=None)
    @given(bit_matrices, st.integers(min_value=0, max_value=2**32 - 1))
    def test_gf2_dot_matches_dense_parity(self, bits, seed):
        other = (np.random.default_rng(seed).random(bits.shape) < 0.5).astype(np.uint8)
        packed_dot = gf2_dot_packed(pack_rows(bits), pack_rows(other))
        dense_dot = (bits.astype(int) * other.astype(int)).sum(axis=-1) % 2
        assert np.array_equal(packed_dot, dense_dot.astype(np.uint8))


class TestPackedCrc:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([CRC5_GEN2, CRC16_GEN2]),
    )
    def test_packed_crc_matches_scalar_walk(self, payload_len, n_rows, seed, spec):
        rng = np.random.default_rng(seed)
        rows = np.stack(
            [crc_append(random_bits(payload_len, rng), spec) for _ in range(n_rows)]
        )
        # Corrupt roughly half the rows by one bit each.
        corrupt = rng.random(n_rows) < 0.5
        for i in np.flatnonzero(corrupt):
            rows[i, rng.integers(rows.shape[1])] ^= 1
        expected = np.array([crc_check(row, spec) for row in rows])
        got = crc_check_packed(pack_rows(rows), rows.shape[1], spec)
        assert np.array_equal(got, expected)

    def test_message_shorter_than_crc_never_verifies(self):
        packed = pack_rows(np.ones((3, 4), dtype=np.uint8))
        assert not crc_check_packed(packed, 4, CRC5_GEN2).any()
