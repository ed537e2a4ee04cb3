"""Synchronous CDMA uplink baseline with Walsh codes (on-off spreading).

All K tags transmit concurrently; tag *i* signals a data 1 by reflecting
its Walsh row ``w_i`` (as OOK chips ``(w+1)/2``) and a data 0 by staying
silent — the only spreading a two-state backscatter modulator can do.
The spreading factor is the smallest power of two ≥ K, hence length 16 for
K = 12 (the paper's Fig. 10/11 anomaly). The reader correlates each bit
period against each code and thresholds coherently.

**Why CDMA fails in backscatter.**

* *On-off, not antipodal*: the decision is between ``N·|h|/2`` and 0
  rather than ±, costing ~6 dB relative to true BPSK CDMA — and the
  correlation gain ``√(N/8)·|h|/σ`` is well below TDMA's Miller-4 matched
  filter for every N the paper uses. Weak tags fail first (near-far), and
  backscatter tags cannot power-control their reflections.
* *The all-ones row*: Walsh row 0 has no zero-mean chips, so its
  correlator enjoys no multi-access cancellation — the tag holding it
  absorbs interference from every other tag (a standard correlator does
  no successive cancellation).
* *Sync leakage*: the measured initial offsets (§8.1) shift each tag by a
  fraction of a chip, leaking a strong tag's edges into every other
  correlator.
* *No rate adaptation*: like TDMA the aggregate rate is pinned at
  ``K/N ≤ 1`` bits per symbol of airtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.coding.crc import crc_check
from repro.coding.walsh import walsh_code_length, walsh_codes
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag
from repro.phy.noise import awgn
from repro.phy.sync import MOO_RFID_SYNC

__all__ = ["CdmaResult", "run_cdma_uplink"]


@dataclass
class CdmaResult:
    """Outcome of one synchronous-CDMA round."""

    decoded_mask: np.ndarray
    messages: np.ndarray
    duration_s: float
    spreading_factor: int
    transmissions: np.ndarray
    bit_errors: int

    @property
    def n_decoded(self) -> int:
        return int(self.decoded_mask.sum())

    @property
    def message_loss(self) -> int:
        return int((~self.decoded_mask).sum())

    def bits_per_symbol(self) -> float:
        """K bits delivered per K·N chips — ≤ 1, and < 1 when N > K."""
        return self.decoded_mask.size / self.spreading_factor


def run_cdma_uplink(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
) -> CdmaResult:
    """Simulate one chip-level synchronous CDMA round.

    The chip rate is the uplink symbol rate (80 k chips/s — the paper
    gives CDMA "the same symbol rate as Buzz"). Per-tag initial sync
    offsets are drawn from the measured Moo profile and applied as
    fractional-chip leakage; the reader runs a standard coherent
    correlator per bit with known channels. A message is delivered iff
    its CRC-5 verifies.
    """
    k = len(tags)
    if k == 0:
        raise ValueError("need at least one tag")
    messages = np.stack([t.message for t in tags])
    n_bits = messages.shape[1]
    channels = np.array([t.channel for t in tags], dtype=complex)

    n = walsh_code_length(k)
    codes = walsh_codes(n)[:k]  # (K, N) rows of ±1
    chip_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps

    # Fractional-chip misalignment per tag from the measured offsets.
    offsets_s = MOO_RFID_SYNC.sample(k, rng)
    eps = np.clip(offsets_s / chip_s, 0.0, 0.49)

    # On-air chip streams: reflect the code for a 1-bit, silence for a 0-bit.
    ook_codes = (codes + 1.0) / 2.0  # (K, N) in {0, 1}
    chips = messages.astype(float)[:, :, None] * ook_codes[:, None, :]  # (K, P, N)
    chips = chips.reshape(k, n_bits * n)

    # Fractional delay: a tag late by ε still shows its *previous* chip for
    # the first ε of the period.
    delayed = np.empty_like(chips)
    delayed[:, 0] = chips[:, 0]  # no history before the first chip
    delayed[:, 1:] = chips[:, :-1]
    effective = (1.0 - eps[:, None]) * chips + eps[:, None] * delayed

    received = (channels[:, None] * effective).sum(axis=0)
    received = received + awgn(received.shape, front_end.noise_std, rng)

    # Reader: correlate per bit and per code. For zero-mean rows the other
    # tags' DC halves cancel in the correlation; row 0 (all ones) has no
    # such protection and eats the full multi-access interference.
    clean = received.reshape(n_bits, n)
    correlations = clean @ codes.T  # (P, K); entry ≈ h_j·m_j·N/2 (+ MAI)
    # On-off decision: threshold the coherent projection at half the
    # expected 1-level.
    projection = np.real(np.conj(channels)[None, :] * correlations)
    threshold = (np.abs(channels) ** 2)[None, :] * n / 4.0
    decisions = projection > threshold
    estimates = decisions.T.astype(np.uint8)  # (K, P)

    decoded_mask = np.zeros(k, dtype=bool)
    bit_errors = 0
    for i in range(k):
        bit_errors += int(np.count_nonzero(estimates[i] != messages[i]))
        decoded_mask[i] = crc_check(estimates[i])

    duration = n_bits * n * chip_s + GEN2_DEFAULT_TIMING.query_duration_s()
    return CdmaResult(
        decoded_mask=decoded_mask,
        messages=estimates,
        duration_s=duration,
        spreading_factor=n,
        transmissions=np.ones(k, dtype=int),
        bit_errors=bit_errors,
    )
