"""TDMA uplink baseline: sequential, Miller-4-protected transmissions.

Tags transmit one after another in reader-assigned slots (the Gen-2 model).
Each tag sends its P-bit message once, line-coded with Miller-M. The reader
matched-filters each bit against the two Miller basis waveforms through the
tag's (known) channel. TDMA's aggregate rate is pinned at 1 bit/symbol — a
K-tag transfer always costs exactly ``K·P`` symbol periods — and a tag whose
channel cannot support even that rate simply loses its message (no feedback
loop exists to add redundancy; §1's "ineffective bit rate adaptation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.coding.crc import crc_check
from repro.coding.miller import miller_basis, miller_encode
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag
from repro.phy.noise import awgn

__all__ = ["TdmaResult", "run_tdma_uplink"]


@dataclass
class TdmaResult:
    """Outcome of a TDMA round: one transmission per tag."""

    decoded_mask: np.ndarray
    messages: np.ndarray
    duration_s: float
    transmissions: np.ndarray
    bit_errors: int

    @property
    def n_decoded(self) -> int:
        return int(self.decoded_mask.sum())

    @property
    def message_loss(self) -> int:
        return int((~self.decoded_mask).sum())

    def bits_per_symbol(self) -> float:
        """Always 1 — TDMA cannot adapt its aggregate rate."""
        return 1.0


def run_tdma_uplink(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    miller_m: int = 4,
) -> TdmaResult:
    """Simulate one TDMA round at the waveform level.

    Each tag's Miller-M waveform is scaled by its channel, received in
    AWGN, and matched-filter decoded. A message is delivered iff its CRC
    verifies. Duration is ``K·P`` bit periods at the uplink rate — the
    subcarrier cycles live *inside* one bit period (Gen-2 keeps the data
    rate constant and raises the backscatter link frequency), which is also
    why Miller-4 costs ~8 impedance switches per bit.
    """
    k = len(tags)
    if k == 0:
        raise ValueError("need at least one tag")
    messages = np.stack([t.message for t in tags])
    n_bits = messages.shape[1]
    samples_per_bit = 2 * miller_m

    decoded_mask = np.zeros(k, dtype=bool)
    estimates = np.zeros_like(messages)
    basis0, basis1 = miller_basis(miller_m)
    bit_errors = 0

    for i, tag in enumerate(tags):
        wave = miller_encode(messages[i], miller_m)  # ±1 chips
        received = tag.channel * wave + awgn(wave.shape, front_end.noise_std, rng)
        # Coherent matched filter per bit: project on h·basis, pick larger.
        bits = np.empty(n_bits, dtype=np.uint8)
        for b in range(n_bits):
            chunk = received[samples_per_bit * b : samples_per_bit * (b + 1)]
            c0 = abs(np.vdot(tag.channel * basis0, chunk))
            c1 = abs(np.vdot(tag.channel * basis1, chunk))
            bits[b] = 1 if c1 > c0 else 0
        estimates[i] = bits
        bit_errors += int(np.count_nonzero(bits != messages[i]))
        decoded_mask[i] = crc_check(bits)

    symbol_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps
    duration = k * n_bits * symbol_s + GEN2_DEFAULT_TIMING.query_duration_s()
    return TdmaResult(
        decoded_mask=decoded_mask,
        messages=estimates,
        duration_s=duration,
        transmissions=np.ones(k, dtype=int),
        bit_errors=bit_errors,
    )
