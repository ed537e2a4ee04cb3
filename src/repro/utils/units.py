"""Unit conversions used across the PHY and experiment layers.

Conventions:

* Time is carried in **seconds** internally; ``us``/``ms`` build second
  values from the units the paper quotes.
* ``power_to_db``/``db_to_power`` operate on *power* ratios (10 log10).
  SNRs in this code base are power ratios.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "db_to_power",
    "power_to_db",
    "us",
    "ms",
]

_EPS = np.finfo(float).tiny


def us(value: float) -> float:
    """Microseconds → seconds."""
    return float(value) * 1e-6


def ms(value: float) -> float:
    """Milliseconds → seconds."""
    return float(value) * 1e-3


def power_to_db(ratio):
    """Power ratio → decibels (10·log10)."""
    return 10.0 * np.log10(np.maximum(np.asarray(ratio, dtype=float), _EPS))


def db_to_power(db):
    """Decibels → power ratio."""
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)
