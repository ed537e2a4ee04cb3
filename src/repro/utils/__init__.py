"""Shared utilities for the Buzz reproduction.

This package deliberately holds only generic helpers — deterministic random
number streams, bit manipulation, unit conversions, empirical CDFs and
argument validation. Anything that encodes knowledge about backscatter
communication lives in a domain package (``repro.phy``, ``repro.coding``,
``repro.core``, ...).
"""

from repro.utils.bits import (
    bits_from_int,
    bits_to_int,
    random_bits,
)
from repro.utils.rng import SeedSequenceFactory, derive_seed, stream
from repro.utils.stats import empirical_cdf
from repro.utils.units import (
    db_to_power,
    power_to_db,
    us,
    ms,
)
from repro.utils.validation import (
    ensure_in_range,
    ensure_positive,
    ensure_positive_int,
    ensure_probability,
)

__all__ = [
    "SeedSequenceFactory",
    "bits_from_int",
    "bits_to_int",
    "db_to_power",
    "derive_seed",
    "empirical_cdf",
    "ensure_in_range",
    "ensure_positive",
    "ensure_positive_int",
    "ensure_probability",
    "ms",
    "power_to_db",
    "random_bits",
    "stream",
    "us",
]
