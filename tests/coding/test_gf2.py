"""Property tests for the GF(2) CRC check over whole bit matrices.

:func:`crc_check_matrix` verifies every row with one GF(2) product
against a superposition table instead of one bit-serial register walk per
row. These tests pin it bit for bit against the scalar walk under
randomised inputs, for both Gen-2 CRC specs and for rows past 64 bits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coding.crc import CRC5_GEN2, CRC16_GEN2, crc_append, crc_check, crc_check_matrix
from repro.utils.bits import random_bits


class TestPackedCrc:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([CRC5_GEN2, CRC16_GEN2]),
    )
    def test_packed_crc_matches_scalar_walk(self, payload_len, n_rows, seed, spec):
        # Payloads up to 80 bits put rows past 64 bits, as the 101-bit
        # shopping-cart messages are.
        rng = np.random.default_rng(seed)
        rows = np.stack(
            [crc_append(random_bits(payload_len, rng), spec) for _ in range(n_rows)]
        )
        # Corrupt roughly half the rows by one bit each.
        corrupt = rng.random(n_rows) < 0.5
        for i in np.flatnonzero(corrupt):
            rows[i, rng.integers(rows.shape[1])] ^= 1
        expected = np.array([crc_check(row, spec) for row in rows])
        assert np.array_equal(crc_check_matrix(rows, spec), expected)

    def test_message_shorter_than_crc_never_verifies(self):
        assert not crc_check_matrix(np.ones((3, 4), dtype=np.uint8), CRC5_GEN2).any()
