"""Cyclic redundancy checks (EPC Gen-2 polynomials).

The paper's uplink experiments use 32-bit messages protected by a 5-bit CRC
(§9); the Gen-2 air interface protects longer frames with CRC-16/CCITT. Both
are implemented here as bit-serial CRCs over the canonical bit-array
representation, with the exact preset/inversion conventions of the standard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from repro.utils.bits import as_bits

__all__ = [
    "CrcSpec",
    "CRC5_GEN2",
    "CRC16_GEN2",
    "crc_compute",
    "crc_append",
    "crc_check",
    "crc_check_matrix",
]


@dataclass(frozen=True)
class CrcSpec:
    """Parameters of a bit-serial CRC.

    Attributes
    ----------
    width:
        Number of CRC bits.
    poly:
        Generator polynomial without the leading x^width term.
    init:
        Preset of the shift register.
    xor_out:
        Value XORed into the register after processing (0 for Gen-2 CRC-5,
        all-ones inversion for Gen-2 CRC-16).
    """

    name: str
    width: int
    poly: int
    init: int
    xor_out: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("CRC width must be positive")
        mask = (1 << self.width) - 1
        for field_name in ("poly", "init", "xor_out"):
            if getattr(self, field_name) & ~mask:
                raise ValueError(f"{field_name} does not fit in {self.width} bits")


#: EPC Gen-2 CRC-5: x^5 + x^3 + 1, preset 0b01001 (standard Annex F).
CRC5_GEN2 = CrcSpec(name="CRC-5/EPC", width=5, poly=0b01001, init=0b01001, xor_out=0)

#: EPC Gen-2 CRC-16: CCITT polynomial 0x1021, preset 0xFFFF, inverted output.
CRC16_GEN2 = CrcSpec(name="CRC-16/EPC", width=16, poly=0x1021, init=0xFFFF, xor_out=0xFFFF)


def crc_compute(bits: Union[Sequence[int], np.ndarray], spec: CrcSpec = CRC5_GEN2) -> np.ndarray:
    """CRC of a bit array, returned as ``spec.width`` bits (MSB first)."""
    data = as_bits(bits)
    register = spec.init
    top = 1 << (spec.width - 1)
    mask = (1 << spec.width) - 1
    for bit in data:
        feedback = ((register & top) >> (spec.width - 1)) ^ int(bit)
        register = ((register << 1) & mask)
        if feedback:
            register ^= spec.poly
    register ^= spec.xor_out
    return np.array(
        [(register >> (spec.width - 1 - i)) & 1 for i in range(spec.width)], dtype=np.uint8
    )


def crc_append(bits: Union[Sequence[int], np.ndarray], spec: CrcSpec = CRC5_GEN2) -> np.ndarray:
    """Return ``bits`` with their CRC appended — a transmit-ready message."""
    data = as_bits(bits)
    return np.concatenate([data, crc_compute(data, spec)])


def crc_check(message: Union[Sequence[int], np.ndarray], spec: CrcSpec = CRC5_GEN2) -> bool:
    """Verify a message created by :func:`crc_append`.

    Returns ``True`` iff the trailing ``spec.width`` bits are the correct CRC
    of the leading payload.
    """
    msg = as_bits(message)
    if msg.size < spec.width:
        return False
    payload, received = msg[: -spec.width], msg[-spec.width :]
    return bool(np.array_equal(crc_compute(payload, spec), received))


@lru_cache(maxsize=64)
def _crc_linear_table(n_payload_bits: int, spec: CrcSpec):
    """Superposition table for a batched CRC over fixed-length payloads.

    The bit-serial update ``r' = shift(r) ⊕ (msb(r) ⊕ b)·poly`` is linear
    over GF(2) in ``(register, bit)``, so the final register of any payload
    is the XOR of (a) the register produced by the all-zeros payload with
    the real preset/xor-out and (b) one per-position contribution per set
    bit, computed with preset 0 and xor-out 0. Returns ``(T, C)`` where
    ``T`` is ``(n_payload_bits, width)`` — row *i* the contribution of bit
    *i* — and ``C`` the ``(width,)`` all-zeros register.
    """
    homogeneous = replace(spec, init=0, xor_out=0)
    table = np.zeros((n_payload_bits, spec.width), dtype=np.uint8)
    unit = np.zeros(n_payload_bits, dtype=np.uint8)
    for i in range(n_payload_bits):
        unit[i] = 1
        table[i] = crc_compute(unit, homogeneous)
        unit[i] = 0
    zeros = crc_compute(np.zeros(n_payload_bits, dtype=np.uint8), spec)
    return table.astype(np.int64), zeros.astype(np.int64)


def crc_check_matrix(messages: np.ndarray, spec: CrcSpec = CRC5_GEN2) -> np.ndarray:
    """Batched :func:`crc_check` over the rows of an ``(N, L)`` bit matrix.

    A CRC is linear over GF(2), so every row's register is one integer
    product against the cached superposition table,
    ``((payload @ T) & 1) ^ C`` (see :func:`_crc_linear_table`), replacing
    N bit-serial register walks. Integer arithmetic is exact, so this is
    bit-identical to calling :func:`crc_check` per row (property-tested),
    for any :class:`CrcSpec`.
    """
    bits = np.atleast_2d(np.asarray(messages))
    if bits.ndim != 2:
        raise ValueError("messages must be a 2-D bit matrix")
    if not (((bits == 0) | (bits == 1)).all()):
        # Same contract as the scalar path's as_bits: a ±1 BPSK or raw
        # integer matrix must fail loudly, not verify silently wrong.
        raise ValueError("bit matrices may only contain 0 and 1")
    n, length = bits.shape
    if length < spec.width:
        return np.zeros(n, dtype=bool)
    n_payload = length - spec.width
    table, zeros = _crc_linear_table(n_payload, spec)
    payload = bits[:, :n_payload].astype(np.int64)
    computed = ((payload @ table) & 1) ^ zeros
    return np.all(computed == bits[:, n_payload:], axis=1)
