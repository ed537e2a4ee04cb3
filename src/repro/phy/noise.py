"""Complex AWGN at the backscatter reader.

Noise is circularly-symmetric complex Gaussian. Throughout the code base the
``noise_std`` of a link is the std of the *complex* sample, i.e. each of the
real and imaginary parts has std ``noise_std / sqrt(2)`` and
``E[|n|^2] = noise_std^2``.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.utils.units import power_to_db
from repro.utils.validation import ensure_positive

__all__ = ["awgn", "awgn_block", "snr_db"]


def awgn(
    shape: Union[int, Tuple[int, ...]],
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with ``E[|n|^2] = noise_std^2``."""
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    if noise_std == 0:
        return np.zeros(shape, dtype=complex)
    scale = noise_std / np.sqrt(2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def awgn_block(
    n_slots: int,
    n_symbols: int,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n_slots`` rows of complex AWGN, stream-identical to per-slot draws.

    Returns the same ``(n_slots, n_symbols)`` values — bit for bit — as
    ``n_slots`` successive ``awgn(n_symbols, ...)`` calls on the same
    generator, while consuming the stream in one vectorized draw: each
    per-slot call draws ``n_symbols`` reals then ``n_symbols`` imaginaries,
    and a C-ordered ``(n_slots, 2, n_symbols)`` ``standard_normal`` fills in
    exactly that order. This is what lets the data-phase PHY loop batch a
    whole row block without perturbing any seeded session.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    if noise_std == 0:
        return np.zeros((n_slots, n_symbols), dtype=complex)
    scale = noise_std / np.sqrt(2.0)
    draws = rng.standard_normal((n_slots, 2, n_symbols))
    return scale * (draws[:, 0, :] + 1j * draws[:, 1, :])


def snr_db(signal: np.ndarray, noise_std: float) -> float:
    """Empirical SNR (power dB) of a complex signal against a known noise std."""
    ensure_positive(noise_std, "noise_std")
    sig = np.asarray(signal)
    power = float(np.mean(np.abs(sig) ** 2))
    return float(power_to_db(power / noise_std**2))
