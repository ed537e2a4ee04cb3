"""The per-tag pseudorandom decision shared by tags and reader.

Buzz's protocols hinge on the reader being able to *regenerate* each tag's
random decisions (§5: "the reader can generate this matrix by using the same
pseudorandom number generator used by the nodes"). :func:`slot_decision` is
a *stateless* keyed decision: a 64-bit integer hash of ``(seed, slot)``
compared against a probability. This mirrors the paper's rate-adaptation
protocol where the generator is "seeded by its own temporary id and the
current time slot" (§6a), and makes reader-side regeneration of any slot
O(1) without replaying a stream.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.utils.validation import ensure_positive_int, ensure_probability

__all__ = [
    "slot_decision",
    "slot_decision_matrix",
    "transmit_pattern_matrix",
]


def _mix64(x: int) -> int:
    """SplitMix64 finaliser — a high-quality stateless 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def slot_decision(seed: int, slot: int, p: float, salt: int = 0) -> int:
    """Stateless transmit decision for ``(seed, slot)`` with probability ``p``.

    Both a tag (knowing only its own seed) and the reader (knowing all
    seeds) evaluate this identically, which is what lets the reader rebuild
    the collision matrix D of Eq. 7 without any per-slot signalling.
    """
    ensure_probability(p, "p")
    h = _mix64(((int(seed) & 0xFFFFFFFF) << 32) ^ (int(slot) & 0xFFFFFFFF) ^ (int(salt) << 17))
    return 1 if (h >> 11) / float(1 << 53) < p else 0


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finaliser over a uint64 array.

    uint64 arithmetic wraps modulo 2⁶⁴, matching :func:`_mix64`'s explicit
    masking bit for bit.
    """
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def slot_decision_matrix(
    seeds: Sequence[int], slots: Iterable[int], p: float, salt: int = 0
) -> np.ndarray:
    """All of :func:`slot_decision` for ``slots × seeds`` in one numpy pass.

    Returns the ``(len(slots), len(seeds))`` uint8 matrix whose entry
    ``[j, i]`` equals ``slot_decision(seeds[i], slots[j], p, salt)`` — rows
    of the collision matrix D (Eq. 7) or of the identification sensing
    matrix, regenerated in bulk instead of one Python call per entry.
    """
    ensure_probability(p, "p")
    seed_part = np.array(
        [(int(s) & 0xFFFFFFFF) << 32 for s in seeds], dtype=np.uint64
    )
    slot_part = np.array([int(j) & 0xFFFFFFFF for j in slots], dtype=np.uint64)
    if seed_part.size == 0 or slot_part.size == 0:
        return np.zeros((slot_part.size, seed_part.size), dtype=np.uint8)
    salt_part = np.uint64((int(salt) << 17) & 0xFFFFFFFFFFFFFFFF)
    h = _mix64_array(seed_part[None, :] ^ slot_part[:, None] ^ salt_part)
    # uint64 >> 11 fits in 53 bits, so the float64 conversion is exact and
    # the comparison reproduces the scalar path's float division exactly.
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return (u < p).astype(np.uint8)


def transmit_pattern_matrix(
    seeds: Sequence[int], n_slots: int, p: float = 0.5, salt: int = 0
) -> np.ndarray:
    """Stack transmit patterns into the ``(n_slots, len(seeds))`` matrix.

    This is exactly the (sub)matrix the reader regenerates during Stage 3 of
    identification (A′ of Eq. 5) and during rateless decoding (D of Eq. 7).
    """
    ensure_positive_int(n_slots, "n_slots")
    return slot_decision_matrix(list(seeds), range(n_slots), p, salt)
