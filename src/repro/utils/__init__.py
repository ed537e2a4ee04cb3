"""Shared utilities for the Buzz reproduction.

This package deliberately holds only generic helpers — deterministic random
number streams, bit manipulation, unit conversions, empirical CDFs and
argument validation. Anything that encodes knowledge about backscatter
communication lives in a domain package (``repro.phy``, ``repro.coding``,
``repro.core``, ...).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.utils.bits": ("bits_from_int", "bits_to_int", "random_bits"),
        "repro.utils.rng": ("SeedSequenceFactory", "derive_seed", "stream"),
        "repro.utils.stats": ("empirical_cdf",),
        "repro.utils.units": ("db_to_power", "power_to_db", "us", "ms"),
        "repro.utils.validation": (
            "ensure_in_range",
            "ensure_positive",
            "ensure_positive_int",
            "ensure_probability",
        ),
    },
)
