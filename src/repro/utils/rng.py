"""Deterministic random-number streams.

Every stochastic component in the reproduction draws from a named substream
derived from a root seed. This gives two properties the experiments rely on:

* **Reproducibility** — the same root seed always regenerates the same
  channels, tag patterns, and noise, so paper figures are bit-stable.
* **Independence** — distinct names yield statistically independent streams,
  so e.g. changing how many noise samples the PHY draws does not perturb the
  channel realisations used by a different part of the same experiment.

The scheme hashes ``(root_seed, *keys)`` through :class:`numpy.random.
SeedSequence`, which is explicitly designed for this kind of keyed
derivation.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

Key = Union[int, str]

__all__ = ["derive_seed", "stream", "SeedSequenceFactory"]


def _key_to_int(key: Key) -> int:
    """Map a stream key (int or str) to a stable 32-bit integer."""
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
    raise TypeError(f"stream keys must be int or str, got {type(key).__name__}")


def derive_seed(root_seed: int, *keys: Key) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a path of keys.

    The derivation is stable across processes and platforms. Useful when a
    component needs an integer seed (e.g. to hand to a tag's LFSR) rather
    than a :class:`numpy.random.Generator`.
    """
    entropy = [int(root_seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in keys]
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def stream(root_seed: int, *keys: Key) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator` for a keyed path.

    Examples
    --------
    >>> g1 = stream(7, "channel", 0)
    >>> g2 = stream(7, "channel", 1)
    >>> g1 is g2
    False
    >>> float(stream(7, "noise").standard_normal()) == float(
    ...     stream(7, "noise").standard_normal())
    True
    """
    entropy = [int(root_seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class SeedSequenceFactory:
    """Convenience wrapper that remembers a root seed.

    >>> factory = SeedSequenceFactory(42)
    >>> gen = factory.stream("fading", 3)
    >>> factory.seed("tag", 5) == factory.seed("tag", 5)
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def stream(self, *keys: Key) -> np.random.Generator:
        """Independent generator for the given key path."""
        return stream(self.root_seed, *keys)

    def seed(self, *keys: Key) -> int:
        """Derived integer seed for the given key path."""
        return derive_seed(self.root_seed, *keys)

    def spawn(self, *keys: Key) -> "SeedSequenceFactory":
        """A child factory rooted at the derived seed for ``keys``."""
        return SeedSequenceFactory(self.seed(*keys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(root_seed={self.root_seed})"
