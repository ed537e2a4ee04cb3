"""Bit-packed GF(2) kernels: uint64 words, popcounts, packed CRC checks.

The reader's CRC verification is GF(2) arithmetic over 0/1 message rows.
This module provides the packed representation it runs on:

* :func:`pack_rows` — pack the last axis of a 0/1 array into uint64
  words, 64 bits per word, bit *m* of a row stored in word ``m // 64`` at
  position ``m % 64``. Lengths that are not a multiple of 64 pad with
  zero bits.
* :func:`popcount` — per-element population count. Uses
  ``np.bitwise_count`` when the installed numpy provides it (added in
  numpy 2.0); older numpys fall back to a byte-wise lookup table over a
  uint8 view, bit-identical but slower.
* :func:`gf2_dot_packed` — GF(2) inner products via ``popcount(a & b) & 1``;
  the primitive behind the packed CRC check.
* :func:`crc_check_packed` — batched CRC verification directly on packed
  message rows, with the per-position CRC superposition table itself packed
  into uint64 words. Exact integer arithmetic: always bit-identical to the
  bit-serial register walk, for any :class:`~repro.coding.crc.CrcSpec`.

The word layout is defined arithmetically (shifts on uint64), not through
``np.packbits``/byte views, so packed arrays mean the same thing on any
byte order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "HAVE_BITWISE_COUNT",
    "WORD_BITS",
    "packed_words",
    "pack_rows",
    "popcount",
    "gf2_dot_packed",
    "crc_check_packed",
]

#: Bits per packed word.
WORD_BITS = 64

#: Whether the installed numpy has a native popcount ufunc (numpy >= 2.0).
#: Tests monkeypatch this to pin the lookup-table fallback.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Popcount of every byte value — the fallback table.
_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

_BYTE_SHIFTS = np.arange(8, dtype=np.uint64) * np.uint64(8)


def packed_words(n_bits: int) -> int:
    """Number of uint64 words needed for ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into uint64 words.

    ``(..., n)`` → ``(..., ceil(n/64))``; bit *m* lands in word ``m // 64``
    at bit position ``m % 64``. Trailing pad bits are zero.
    """
    bits = np.asarray(bits)
    if not (((bits == 0) | (bits == 1)).all()):
        raise ValueError("pack_rows expects a 0/1 array")
    n = bits.shape[-1]
    n_words = packed_words(n)
    padded = np.zeros(bits.shape[:-1] + (n_words * WORD_BITS,), dtype=np.uint8)
    padded[..., :n] = bits
    # packbits does the bit-level work in C; the byte→word assembly below is
    # arithmetic (shifts), so the layout is byte-order independent.
    as_bytes = np.packbits(padded, axis=-1, bitorder="little")
    grouped = as_bytes.reshape(bits.shape[:-1] + (n_words, 8)).astype(np.uint64)
    return np.bitwise_or.reduce(grouped << _BYTE_SHIFTS, axis=-1)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned-integer array.

    Dispatches to ``np.bitwise_count`` when available; otherwise sums a
    byte-wise lookup table over a uint8 view of the same memory. Both
    return uint8 (a uint64 holds at most 64 set bits).
    """
    words = np.asarray(words)
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    contiguous = np.ascontiguousarray(words)
    as_bytes = contiguous.view(np.uint8).reshape(words.shape + (words.dtype.itemsize,))
    return _POP8[as_bytes].sum(axis=-1, dtype=np.uint8)


def gf2_dot_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) inner product(s) along the last (word) axis of packed arrays.

    Broadcasts like an elementwise op on the leading axes; the word axis
    contracts via ``popcount(a & b)`` summed mod 2.
    """
    both = np.asarray(a, dtype=np.uint64) & np.asarray(b, dtype=np.uint64)
    return (popcount(both).sum(axis=-1, dtype=np.int64) & 1).astype(np.uint8)


@lru_cache(maxsize=64)
def _packed_crc_table(n_bits: int, spec) -> tuple:
    """Packed superposition table for CRC over ``n_bits``-bit messages.

    Returns ``(table, zeros, check_idx)``: ``table`` is ``(width, W)`` —
    row *t* the packed payload-positions whose set bits toggle CRC bit *t*
    (from :func:`repro.coding.crc._crc_linear_table`, transposed and
    packed); ``zeros`` the ``(width,)`` register of the all-zeros payload;
    ``check_idx`` the ``(width,)`` bit indices of the received CRC inside
    the message. Payload positions beyond ``n_bits − width`` are zero in
    every table row, so the table can be ANDed against *whole* packed
    messages — the trailing CRC bits never contribute to the parity.
    """
    from repro.coding.crc import _crc_linear_table

    n_payload = n_bits - spec.width
    dense, zeros = _crc_linear_table(n_payload, spec)
    rows = np.zeros((spec.width, n_bits), dtype=np.uint8)
    rows[:, :n_payload] = (dense.T & 1).astype(np.uint8)
    table = pack_rows(rows)
    check_idx = np.arange(n_payload, n_bits)
    return table, zeros.astype(np.uint8), check_idx


def crc_check_packed(packed: np.ndarray, n_bits: int, spec) -> np.ndarray:
    """Batched CRC check over packed message rows.

    ``packed`` is ``(N, W)`` uint64 — each row an ``n_bits``-bit message
    packed by :func:`pack_rows` (payload followed by its ``spec.width``-bit
    CRC). Returns an ``(N,)`` boolean mask, bit-identical to
    :func:`repro.coding.crc.crc_check` row by row: each CRC bit is one
    GF(2) inner product, ``popcount(message & table_row) & 1``.
    """
    packed = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
    if n_bits < spec.width:
        return np.zeros(packed.shape[0], dtype=bool)
    table, zeros, check_idx = _packed_crc_table(int(n_bits), spec)
    # (N, width): parity of message ∩ per-CRC-bit superposition row.
    computed = gf2_dot_packed(packed[:, None, :], table[None, :, :]) ^ zeros[None, :]
    received = (
        packed[:, check_idx // WORD_BITS] >> (check_idx % WORD_BITS).astype(np.uint64)
    ) & np.uint64(1)
    return np.all(computed == received.astype(np.uint8), axis=1)
