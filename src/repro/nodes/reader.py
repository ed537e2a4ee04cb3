"""Reader front end: the RF-facing half of the backscatter reader.

Protocol logic (identification stages, rateless decoding) lives in
:mod:`repro.core`; this class owns what the USRP did in the paper's
prototype — turning the tags' per-slot reflect/silent decisions into noisy
received symbols, and making the energy-detection calls (occupied/empty)
that Stages 1 and 2 rely on.

The occupancy threshold is set from the known noise floor: a slot is
"occupied" when its power exceeds :data:`OCCUPANCY_SIGMA` times the mean
noise power. With the paper's SNRs (≥ ~4 dB per tag) this detector is
essentially error-free; challenging-channel sweeps exercise its mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.phy.noise import awgn
from repro.phy.signal import received_symbol_block, received_symbols, slot_energies
from repro.utils.validation import ensure_positive

__all__ = ["ReaderFrontEnd"]

#: Occupied/empty power threshold in units of noise power. 4 trades a
#: ~e⁻⁴ ≈ 1.8 % false-occupied rate per empty slot for reliable detection
#: of tags only ~6 dB above the noise floor — missing a weak tag's bucket
#: would eliminate it outright, while a false-occupied bucket merely admits
#: ``a`` spurious candidates that Stage 3 rejects.
OCCUPANCY_SIGMA = 4.0


@dataclass
class ReaderFrontEnd:
    """Receive chain with a known noise floor.

    Parameters
    ----------
    noise_std:
        Std of the complex AWGN per received symbol (``E[|n|²] = noise_std²``).
    """

    noise_std: float = 0.1

    def __post_init__(self) -> None:
        ensure_positive(self.noise_std, "noise_std")

    def observe(
        self,
        transmit_matrix: np.ndarray,
        channels: Sequence[complex],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Received complex symbol per slot for the given transmit schedule."""
        return received_symbols(transmit_matrix, channels, noise_std=self.noise_std, rng=rng)

    def observe_block(
        self,
        rows: np.ndarray,
        bit_matrix: np.ndarray,
        channels: Sequence[complex],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Received ``(n_slots, P)`` symbols for a block of data-phase slots.

        One vectorized receive for ``rows`` of the collision matrix against
        the ``(K, P)`` message ``bit_matrix`` — the batched form of calling
        :meth:`observe` once per slot with ``(bit_matrix * row[:, None]).T``.
        The noise stream is consumed identically to the per-slot calls.

        Subclasses that override :meth:`observe` (e.g. fault-injection front
        ends) automatically fall back to the per-slot loop so their hook
        still sees every slot.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
        if type(self).observe is not ReaderFrontEnd.observe:
            bits = np.asarray(bit_matrix)
            if rows.shape[0] == 0:
                return np.zeros((0, bits.shape[1]), dtype=complex)
            return np.stack(
                [self.observe((bits * row[:, None]).T, channels, rng) for row in rows]
            )
        return received_symbol_block(
            rows, bit_matrix, channels, noise_std=self.noise_std, rng=rng
        )

    def observe_empty(self, n_slots: int, rng: np.random.Generator) -> np.ndarray:
        """Noise-only symbols (no tag reflects) — e.g. all-silent slots."""
        return awgn(n_slots, self.noise_std, rng)

    def occupied(self, symbols: np.ndarray) -> np.ndarray:
        """Boolean occupied/empty call per slot by energy detection."""
        threshold = OCCUPANCY_SIGMA * self.noise_std**2
        return slot_energies(symbols) > threshold

    def empty_fraction(self, symbols: np.ndarray) -> float:
        """Fraction of slots judged empty — Stage 1's measurement."""
        occ = self.occupied(symbols)
        return 1.0 - float(np.count_nonzero(occ)) / occ.size if occ.size else 1.0
