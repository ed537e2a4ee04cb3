"""Miller-modulated subcarrier coding (EPC Gen-2, M ∈ {2, 4, 8}).

Gen-2's "Miller-M" uplink code multiplies a baseband Miller sequence by a
square subcarrier of M cycles per bit. Relative to FM0 it spreads each bit
over 2·M half-cycles, which:

* gives the reader a matched filter with ~M× processing gain — the
  robustness the paper's TDMA baseline relies on ("Miller-4 code is used in
  TDMA to increase its robustness", §9), and
* costs the tag ~2·M impedance switches per bit — the energy overhead that
  lets Buzz match TDMA's energy in Fig. 13 despite retransmitting.

Baseband Miller rules (levels ±1): a data-1 inverts mid-bit; a data-0 holds,
except that a 0 following a 0 inverts at the bit boundary.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.utils.bits import as_bits

__all__ = ["miller_basis", "miller_encode", "miller_decode", "miller_switch_count"]

_ALLOWED_M = (2, 4, 8)


def _check_m(m: int) -> int:
    if m not in _ALLOWED_M:
        raise ValueError(f"Miller M must be one of {_ALLOWED_M}, got {m}")
    return m


def miller_basis(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Subcarrier-modulated half-cycle waveforms for (data-0, data-1).

    Each is a ±1 array of length ``2·m`` (two samples per subcarrier cycle).
    A data bit transmits one of these, possibly globally inverted to honour
    the Miller boundary/mid-bit phase rules.
    """
    _check_m(m)
    subcarrier = np.tile([1.0, -1.0], m)  # m cycles, 2 samples each
    basis0 = subcarrier.copy()  # no mid-bit phase inversion
    basis1 = subcarrier.copy()
    basis1[m:] *= -1.0  # data-1: phase inversion at bit centre
    return basis0, basis1


def miller_encode(bits: Union[Sequence[int], np.ndarray], m: int = 4) -> np.ndarray:
    """Encode bits into a Miller-M ±1 waveform (``2·m`` samples per bit)."""
    _check_m(m)
    data = as_bits(bits)
    basis0, basis1 = miller_basis(m)
    out = np.empty(2 * m * data.size, dtype=float)
    phase = 1.0
    prev_bit = None
    for i, bit in enumerate(data):
        if prev_bit == 0 and bit == 0:
            phase = -phase  # 0 after 0: boundary inversion
        chunk = (basis1 if bit else basis0) * phase
        out[2 * m * i : 2 * m * (i + 1)] = chunk
        # carry the ending polarity into the next bit so the waveform is
        # continuous across boundaries (no spurious extra transition)
        phase = float(np.sign(chunk[-1]))
        prev_bit = int(bit)
    return out


def miller_decode(waveform: np.ndarray, m: int = 4) -> np.ndarray:
    """Matched-filter decode of a Miller-M waveform back to bits.

    For each bit period the decoder correlates against both (phase-tracked)
    basis waveforms and picks the larger response. Robust to amplitude
    scaling and additive noise; this is where the M× processing gain shows.
    """
    _check_m(m)
    wave = np.asarray(waveform, dtype=float).ravel()
    samples_per_bit = 2 * m
    if wave.size % samples_per_bit:
        raise ValueError("waveform length must be a multiple of 2*m")
    n_bits = wave.size // samples_per_bit
    basis0, basis1 = miller_basis(m)
    bits = np.empty(n_bits, dtype=np.uint8)
    for i in range(n_bits):
        chunk = wave[samples_per_bit * i : samples_per_bit * (i + 1)]
        c0 = abs(float(chunk @ basis0))
        c1 = abs(float(chunk @ basis1))
        bits[i] = 1 if c1 > c0 else 0
    return bits


def miller_switch_count(bits: Union[Sequence[int], np.ndarray], m: int = 4) -> int:
    """Number of impedance switches a tag performs to send ``bits`` with Miller-M.

    Counts level transitions in the encoded waveform (including the initial
    switch into the first level). This drives the energy model of Fig. 13:
    Miller-4 switches ≈ 8× per bit vs 1× for plain OOK.
    """
    data = as_bits(bits)
    if data.size == 0:
        return 0
    wave = miller_encode(data, m)
    transitions = int(np.count_nonzero(np.diff(wave) != 0))
    return transitions + 1
