"""Synchronization: initial offsets and clock drift (paper §8.1).

Backscatter tags are triggered by the reader's command, so they start nearly
simultaneously; the residual error has two components the paper measures:

* **initial offset** — jitter in detecting the reader's trigger. Measured
  90th percentiles: 0.3 µs (Alien commercial tags), 0.5 µs (Moo), with a
  hard ceiling < 1 µs (Fig. 7).
* **clock drift** — each tag times its bits off its own oscillator whose
  rate differs from nominal by a fixed ppm; over a 2 ms message this grows
  to ~50 % of a symbol at 80 kbps unless corrected (Fig. 8a). Tags correct
  it by counting ticks between two reader pulses and inserting compensation
  cycles (Fig. 8b), leaving only a small residual.

The distributions here are parametric stand-ins for the paper's hardware
measurements; their shape parameters are taken from the quoted statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import us
from repro.utils.validation import ensure_positive, ensure_positive_int

__all__ = [
    "SyncProfile",
    "COMMERCIAL_RFID_SYNC",
    "MOO_RFID_SYNC",
    "ClockModel",
    "misalignment_fraction",
]

#: Population mean |drift| and its spread (see
#: :meth:`ClockModel.sample_population`).
_MEAN_ABS_PPM = 250.0
_STD_PPM = 80.0


@dataclass(frozen=True)
class SyncProfile:
    """Initial-offset distribution of a tag family.

    Offsets are drawn from a truncated exponential-like distribution scaled
    so the 90th percentile and maximum match the paper's measurements.
    """

    name: str
    p90_offset_s: float
    max_offset_s: float

    def __post_init__(self) -> None:
        ensure_positive(self.p90_offset_s, "p90_offset_s")
        ensure_positive(self.max_offset_s, "max_offset_s")
        if self.max_offset_s < self.p90_offset_s:
            raise ValueError("max_offset_s must be >= p90_offset_s")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` non-negative offsets (seconds), capped at the maximum.

        Uses an exponential with rate set so P(X <= p90) = 0.9, rejected /
        clipped at ``max_offset_s`` — a simple shape that matches the CDF
        knee the paper shows.
        """
        ensure_positive_int(n, "n")
        scale = self.p90_offset_s / np.log(10.0)  # P(Exp(scale) <= p90) = 0.9
        draws = rng.exponential(scale, size=n)
        return np.minimum(draws, self.max_offset_s)


#: Alien Squiggle commercial UHF RFID tags (paper Fig. 7: 90th pct 0.3 µs).
COMMERCIAL_RFID_SYNC = SyncProfile("commercial", p90_offset_s=us(0.3), max_offset_s=us(0.95))

#: UMass Moo computational RFID (paper Fig. 7: 90th pct 0.5 µs).
MOO_RFID_SYNC = SyncProfile("moo", p90_offset_s=us(0.5), max_offset_s=us(0.98))


@dataclass(frozen=True)
class ClockModel:
    """A tag oscillator with a fixed fractional frequency error.

    ``drift_ppm`` is the part-per-million error of the tag clock relative to
    the reader's virtual clock. The paper notes each tag's drift is stable
    over months, so tags estimate it once and compensate thereafter;
    ``residual_ppm`` is what remains after that correction.
    """

    drift_ppm: float
    residual_ppm: float = 1.0

    def offset_after(self, elapsed_s: float, corrected: bool) -> float:
        """Accumulated timing error (seconds) after ``elapsed_s`` of transmission."""
        if elapsed_s < 0:
            raise ValueError("elapsed_s must be >= 0")
        ppm = self.residual_ppm if corrected else self.drift_ppm
        return elapsed_s * ppm * 1e-6

    def sample_offsets(
        self, bit_rate_hz: float, n_bits: int, corrected: bool
    ) -> np.ndarray:
        """Timing error at the start of each of ``n_bits`` bits (seconds)."""
        ensure_positive(bit_rate_hz, "bit_rate_hz")
        ensure_positive_int(n_bits, "n_bits")
        times = np.arange(n_bits, dtype=float) / bit_rate_hz
        ppm = self.residual_ppm if corrected else self.drift_ppm
        return times * ppm * 1e-6

    @staticmethod
    def sample_population(n_tags: int, rng: np.random.Generator) -> "list[ClockModel]":
        """Draw per-tag drift models.

        The draw reproduces the paper's Fig. 8 observation: at 80 kbps two
        uncorrected tags misalign by ~50 % of a symbol (6.25 µs) after 2 ms,
        i.e. a relative drift of ~3000 ppm between the two worst-case tag
        clocks is possible on the Moo's low-cost oscillator; we use a
        population mean |drift| of 250 ppm with heavy dispersion so the
        *pairwise* spread covers the measured range.
        """
        ensure_positive_int(n_tags, "n_tags")
        magnitudes = np.abs(rng.normal(_MEAN_ABS_PPM, _STD_PPM, size=n_tags))
        signs = rng.choice([-1.0, 1.0], size=n_tags)
        return [ClockModel(drift_ppm=float(m * s)) for m, s in zip(magnitudes, signs)]


def misalignment_fraction(
    clock_a: ClockModel,
    clock_b: ClockModel,
    elapsed_s: float,
    bit_rate_hz: float,
    corrected: bool,
) -> float:
    """Relative misalignment of two tags after ``elapsed_s``, as a fraction of a bit.

    This is the quantity Fig. 8 visualises: ~0.5 after 2 ms at 80 kbps
    without correction, ~0 with correction.
    """
    ensure_positive(bit_rate_hz, "bit_rate_hz")
    delta = abs(
        clock_a.offset_after(elapsed_s, corrected) - clock_b.offset_after(elapsed_s, corrected)
    )
    return float(delta * bit_rate_hz)
