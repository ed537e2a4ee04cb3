"""Tag populations: a deployment draw bundled for the protocol layers.

``make_population`` draws K tags with channels from a
:class:`~repro.phy.channel.ChannelModel`, random messages (CRC appended) and per-tag clock models — everything the
end-to-end experiments need for one "location" in the paper's methodology
(§9 runs 10 locations × 5 traces per scheme).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.coding.crc import crc_append
from repro.nodes.tag import BackscatterTag
from repro.phy.channel import ChannelModel, MobilityModel, MultiReaderModel
from repro.phy.sync import ClockModel
from repro.utils.bits import random_bits
from repro.utils.validation import ensure_positive_int

__all__ = ["TagPopulation", "make_population"]

#: Width of the *global* id space tags are drawn from (distinct ids
#: guaranteed).
ID_SPACE_BITS = 20


@dataclass
class TagPopulation:
    """K tags plus the shared link parameters of one deployment draw.

    ``mobility`` carries the deployment's time-variation statistics when
    the scenario is mobile (drift/churn rates — see
    :class:`~repro.phy.channel.MobilityModel`); session pipelines realise
    one :class:`~repro.phy.channel.ChannelTrajectory` from it per run.
    ``None`` means the draw is static for the whole session (the default,
    and the paper's §9 setup). ``readers`` likewise carries the
    multi-reader deployment statistics (zones, overlap, collision mode —
    see :class:`~repro.phy.channel.MultiReaderModel`) when the scenario
    runs many concurrent readers; the multi-reader simulator realises one
    :class:`~repro.phy.channel.ZoneTrajectory` from it per run. ``None``
    means a single reader owns the whole field.
    """

    tags: List[BackscatterTag]
    noise_std: float
    mobility: Optional[MobilityModel] = None
    readers: Optional[MultiReaderModel] = None

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def channels(self) -> np.ndarray:
        """Complex channel vector in tag order."""
        return np.array([t.channel for t in self.tags], dtype=complex)

    @property
    def messages(self) -> np.ndarray:
        """(K, P) message matrix (all tags share one message length)."""
        lengths = {t.message.size for t in self.tags}
        if len(lengths) != 1:
            raise ValueError("tags carry messages of differing lengths")
        return np.stack([t.message for t in self.tags])

    @property
    def global_ids(self) -> List[int]:
        return [t.global_id for t in self.tags]

    @property
    def temp_ids(self) -> List[int]:
        ids = [t.temp_id for t in self.tags]
        if any(i is None for i in ids):
            raise RuntimeError("some tags have no temporary id yet")
        return [int(i) for i in ids]  # type: ignore[arg-type]

    def snrs_db(self) -> np.ndarray:
        """Per-tag SNR (power dB) against the population's noise floor."""
        mags = np.abs(self.channels)
        return 20.0 * np.log10(mags / self.noise_std)


def make_population(
    n_tags: int,
    rng: np.random.Generator,
    channel_model: Optional[ChannelModel] = None,
    message_bits: int = 32,
    channels: Optional[Sequence[complex]] = None,
    mobility: Optional[MobilityModel] = None,
    readers: Optional[MultiReaderModel] = None,
) -> TagPopulation:
    """Draw a population of ``n_tags`` ready to run the uplink experiments.

    Parameters
    ----------
    message_bits:
        Payload length before the CRC-5 every message carries (the
        paper's uplink experiments use 32-bit messages + CRC-5; Fig. 9
        uses 96-bit messages).
    channels:
        Explicit channel coefficients override the channel-model draw —
        used by SNR-band sweeps (Fig. 12).
    mobility:
        Optional time-variation statistics attached to the draw (mobile
        scenarios); the population itself is still drawn at ``t = 0``.
    readers:
        Optional multi-reader deployment statistics attached to the draw
        (multi-reader scenarios); zone membership is realised per run.
    """
    ensure_positive_int(n_tags, "n_tags")
    model = channel_model if channel_model is not None else ChannelModel()
    if channels is None:
        drawn = model.sample(n_tags, rng)
    else:
        drawn = np.asarray(channels, dtype=complex)
        if drawn.size != n_tags:
            raise ValueError("channels length must equal n_tags")

    # Distinct global ids from a large space.
    space = 1 << ID_SPACE_BITS
    if n_tags > space:
        raise ValueError("id space too small for population")
    global_ids = rng.choice(space, size=n_tags, replace=False)

    clocks = ClockModel.sample_population(n_tags, rng)
    tags: List[BackscatterTag] = []
    for i in range(n_tags):
        payload = random_bits(message_bits, rng)
        message = crc_append(payload)
        tags.append(
            BackscatterTag(
                global_id=int(global_ids[i]),
                channel=complex(drawn[i]),
                message=message,
                clock=clocks[i],
            )
        )
    return TagPopulation(
        tags=tags, noise_std=model.noise_std, mobility=mobility, readers=readers
    )
