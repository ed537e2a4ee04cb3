"""Bit-vector helpers.

Backscatter messages are short binary strings; throughout the code base they
are represented as 1-D ``numpy`` arrays with dtype ``uint8`` and values in
``{0, 1}``. These helpers convert between that representation and integers
and draw random bits.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

BitArray = np.ndarray

__all__ = [
    "as_bits",
    "bits_from_int",
    "bits_to_int",
    "random_bits",
]


def as_bits(values: Union[Sequence[int], np.ndarray]) -> BitArray:
    """Coerce a sequence of 0/1 values to the canonical bit-array dtype.

    Raises :class:`ValueError` if any value is not 0 or 1.
    """
    arr = np.asarray(values, dtype=np.uint8).ravel()
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit arrays may only contain 0 and 1")
    return arr


def bits_from_int(value: int, width: int) -> BitArray:
    """Big-endian bit expansion of ``value`` into exactly ``width`` bits.

    >>> bits_from_int(5, 4).tolist()
    [0, 1, 0, 1]
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0:
        raise ValueError("value must be non-negative")
    if width and value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: Union[Sequence[int], np.ndarray]) -> int:
    """Big-endian integer value of a bit array.

    >>> bits_to_int([1, 0, 1])
    5
    """
    arr = as_bits(bits)
    value = 0
    for bit in arr:
        value = (value << 1) | int(bit)
    return value


def random_bits(n: int, rng: Optional[np.random.Generator] = None, p_one: float = 0.5) -> BitArray:
    """``n`` i.i.d. random bits, each one with probability ``p_one``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p_one <= 1.0:
        raise ValueError("p_one must be in [0, 1]")
    gen = rng if rng is not None else np.random.default_rng()
    return (gen.random(n) < p_one).astype(np.uint8)
