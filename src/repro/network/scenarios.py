"""Deployment scenarios: channel statistics for the paper's experiments.

Absolute RF calibration is explicitly out of scope (our substrate is a
simulator); scenarios pin the *relative* conditions that drive each figure:

* :func:`default_uplink_scenario` — the Figs. 10/11 bench: a table-top
  deployment with healthy mean SNR and the near-far spread of tags at
  0.15–1.8 m from the reader antenna.
* :func:`challenging_scenario` — the Fig. 12 sweep: K = 4 tags pushed
  further and further away; parameterised by a per-tag SNR band.
* :func:`shopping_cart_scenario` — the motivating application (§4a): K
  tagged items in a cart among a large inventory.
* :func:`mobile_sparse_scenario` / :func:`mobile_dense_scenario` /
  :func:`churn_scenario` — time-varying deployments (conveyors, portals):
  the scenario carries a :class:`~repro.phy.channel.MobilityModel` whose
  drift/churn rates the session pipelines realise per run; the
  parameterised :func:`mobile_scenario` builds the fig16 sweep's grid.
* :func:`two_portal_scenario` / :func:`dense_floor_scenario` /
  :func:`handoff_scenario` — multi-reader deployments: the scenario
  carries a :class:`~repro.phy.channel.MultiReaderModel` (zones, overlap,
  collision mode) that the event-driven simulator in
  :mod:`repro.sim.multireader` realises per run; the parameterised
  :func:`multi_reader_scenario` builds the fig17 sweep's grid.

``CHALLENGING_SNR_BANDS`` lists the five bands of Fig. 12's x-axis. Paper
SNRs were measured on their USRP against their noise floor; our equivalent
bands are shifted down by a fixed calibration offset chosen so that the
*baseline* (TDMA with Miller-4) degrades across the sweep the way the paper
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nodes.population import TagPopulation, make_population
from repro.phy.channel import (
    ChannelModel,
    MobilityModel,
    MultiReaderModel,
    channels_for_snr_band,
)
from repro.utils.plain import plain_data
from repro.utils.validation import ensure_positive_int

__all__ = [
    "Scenario",
    "default_uplink_scenario",
    "error_prone_scenario",
    "challenging_scenario",
    "shopping_cart_scenario",
    "dense_deployment_scenario",
    "mobile_scenario",
    "mobile_sparse_scenario",
    "mobile_dense_scenario",
    "churn_scenario",
    "multi_reader_scenario",
    "two_portal_scenario",
    "dense_floor_scenario",
    "handoff_scenario",
    "scenario_by_name",
    "resolve_scenario_factory",
    "ScenarioLike",
    "SCENARIO_NAMES",
    "CHALLENGING_SNR_BANDS",
    "PAPER_SNR_CALIBRATION_DB",
]

#: Fig. 12's x-axis labels: per-tag SNR ranges (dB) as the paper reports them.
CHALLENGING_SNR_BANDS: List[Tuple[int, int]] = [
    (19, 26),
    (15, 22),
    (6, 14),
    (3, 15),
    (4, 12),
]

#: The table-top bench (Figs. 10/11/13): healthy mean SNR, strong line of sight.
TABLE_TOP = ChannelModel(
    mean_snr_db=24.0, near_far_db=12.0, rician_k_db=10.0, noise_std=0.1
)
#: A packed inventory shelf: moderate SNR, wide near-far spread, weak line of sight.
DENSE_SHELF = ChannelModel(
    mean_snr_db=20.0, near_far_db=16.0, rician_k_db=6.0, noise_std=0.1
)
#: A checkout or dock-door portal: close range, tight and strong.
PORTAL = ChannelModel(
    mean_snr_db=26.0, near_far_db=10.0, rician_k_db=12.0, noise_std=0.1
)

#: Our PHY decodes a given SNR better than the paper's USRP chain (no CW
#: phase noise, perfect channel knowledge), so paper-band SNRs map to lower
#: simulator SNRs by this constant offset.
PAPER_SNR_CALIBRATION_DB: float = 6.0


@dataclass(frozen=True)
class Scenario:
    """A deployment class from which locations are drawn.

    Attributes
    ----------
    name:
        Identifier used in experiment reports.
    n_tags:
        Number of tags with data (the paper's K).
    channel_model:
        Location statistics; each draw of channels = one "location".
    message_bits:
        Payload size before CRC (paper §9: 32).
    snr_band_db:
        When set, channels are drawn uniformly in this per-tag SNR band
        instead of from the channel model (the Fig. 12 mode).
    readers:
        When set, the deployment runs several concurrent readers with
        these zone/overlap/collision statistics; the ``multi-reader``
        scheme family realises one zone trajectory per run.
    """

    name: str
    n_tags: int
    channel_model: ChannelModel
    message_bits: int = 32
    snr_band_db: Optional[Tuple[float, float]] = None
    mobility: Optional[MobilityModel] = None
    readers: Optional[MultiReaderModel] = None

    def cache_token(self) -> dict:
        """Stable, JSON-able identity for campaign result caching.

        Everything that shapes a population draw is included — name alone
        would alias scenarios that share a label but differ in channel
        statistics or payload size. ``mobility`` and ``readers`` are part
        of the token only when set, so every static single-reader scenario
        keeps the cache key it had before those axes existed.
        """
        token = plain_data(self)
        if token["mobility"] is None:
            del token["mobility"]
        if token["readers"] is None:
            del token["readers"]
        return token

    def draw_population(self, rng: np.random.Generator) -> TagPopulation:
        """Draw one location: channels + fresh messages for every tag."""
        channels = None
        if self.snr_band_db is not None:
            channels = channels_for_snr_band(
                self.n_tags,
                self.snr_band_db[0],
                self.snr_band_db[1],
                rng,
                noise_std=self.channel_model.noise_std,
            )
        return make_population(
            self.n_tags,
            rng,
            channel_model=self.channel_model,
            message_bits=self.message_bits,
            channels=channels,
            mobility=self.mobility,
            readers=self.readers,
        )


def default_uplink_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """The Figs. 10/11/13 bench: table-top deployment, 0.5–6 ft."""
    ensure_positive_int(n_tags, "n_tags")
    return Scenario(
        name=f"uplink-k{n_tags}",
        n_tags=n_tags,
        channel_model=TABLE_TOP,
        message_bits=message_bits,
    )


def error_prone_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """Fig. 11's channel class: harsher than Fig. 10's.

    The paper's Fig. 11 shows nonzero TDMA/CDMA losses on the *same* traces
    as Fig. 10; our simulator's idealized receivers (perfect channel
    knowledge, no CW phase noise) need a lower SNR operating point to
    exhibit the same baseline loss behaviour.
    """
    ensure_positive_int(n_tags, "n_tags")
    return Scenario(
        name=f"errors-k{n_tags}",
        n_tags=n_tags,
        channel_model=ChannelModel(
            mean_snr_db=12.0, near_far_db=20.0, rician_k_db=8.0, noise_std=0.1
        ),
        message_bits=message_bits,
    )


def challenging_scenario(snr_band_db: Tuple[float, float], n_tags: int = 4) -> Scenario:
    """The Fig. 12 sweep: tags pushed to a target per-tag SNR band.

    ``snr_band_db`` is in *paper units*; the calibration offset maps it to
    simulator SNR.
    """
    low, high = snr_band_db
    return Scenario(
        name=f"challenging-{low}-{high}dB",
        n_tags=n_tags,
        channel_model=ChannelModel(noise_std=0.1),
        snr_band_db=(low - PAPER_SNR_CALIBRATION_DB, high - PAPER_SNR_CALIBRATION_DB),
    )


def shopping_cart_scenario(n_items_in_cart: int = 20, message_bits: int = 96) -> Scenario:
    """The motivating event-driven application: a cart at the checkout.

    A checkout portal reads at very close range (the cart passes within a
    metre of the portal antennas), so the channel class is stronger and
    tighter than the general table-top bench.
    """
    return Scenario(
        name=f"shopping-cart-{n_items_in_cart}",
        n_tags=n_items_in_cart,
        channel_model=PORTAL,
        message_bits=message_bits,
    )


def dense_deployment_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """A crowded deployment: a packed inventory shelf read in place.

    Many reflectors at mixed ranges — moderate mean SNR with a wide
    near-far spread and weaker line-of-sight dominance than the table-top
    bench. The intended workout for the end-to-end session schemes: wide
    channel spreads stress both the compressive-sensing channel estimates
    and the decoder's tolerance of the resulting estimation error.
    """
    ensure_positive_int(n_tags, "n_tags")
    return Scenario(
        name=f"dense-k{n_tags}",
        n_tags=n_tags,
        channel_model=DENSE_SHELF,
        message_bits=message_bits,
    )


def mobile_scenario(
    n_tags: int,
    message_bits: int = 32,
    *,
    drift_rate_hz: float = 8.0,
    departure_rate_hz: float = 0.0,
    late_arrival_fraction: float = 0.0,
    channel_model: Optional[ChannelModel] = None,
    name: Optional[str] = None,
) -> Scenario:
    """A parameterised mobile deployment — the fig16 sweep's building block.

    Takes the dense-shelf channel class by default and attaches a
    :class:`~repro.phy.channel.MobilityModel` with the given drift/churn
    rates. Rates are per second of *airtime*; a complete session at these
    link rates spans ~0.1 s, so e.g. ``drift_rate_hz = 8`` decorrelates
    the channels to ~0.45 of their identification-time value by the end of
    a full-length data phase.
    """
    ensure_positive_int(n_tags, "n_tags")
    model = channel_model if channel_model is not None else DENSE_SHELF
    label = name if name is not None else (
        f"mobile-k{n_tags}-d{drift_rate_hz:g}-c{departure_rate_hz:g}"
        f"-a{late_arrival_fraction:g}"
    )
    return Scenario(
        name=label,
        n_tags=n_tags,
        channel_model=model,
        message_bits=message_bits,
        mobility=MobilityModel(
            drift_rate_hz=drift_rate_hz,
            departure_rate_hz=departure_rate_hz,
            late_arrival_fraction=late_arrival_fraction,
        ),
    )


def mobile_sparse_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """Few tagged items drifting slowly through a table-top class field."""
    return mobile_scenario(
        n_tags,
        message_bits,
        drift_rate_hz=4.0,
        channel_model=TABLE_TOP,
        name=f"mobile-sparse-k{n_tags}",
    )


def mobile_dense_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """The adaptive schemes' intended workout: a crowded shelf in motion.

    Dense-class channels (wide near-far spread, weak line of sight) with
    drift fast enough that identification's channel estimates go stale
    mid-data-phase — the regime where a static end-to-end session burns
    its slot budget on unverifiable columns and a mid-session
    re-identification pays for itself.
    """
    return mobile_scenario(
        n_tags, message_bits, drift_rate_hz=12.0, name=f"mobile-dense-k{n_tags}"
    )


def churn_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """Tags entering and leaving the field mid-session (portal traffic)."""
    return mobile_scenario(
        n_tags,
        message_bits,
        drift_rate_hz=4.0,
        departure_rate_hz=6.0,
        late_arrival_fraction=0.25,
        name=f"churn-k{n_tags}",
    )


def multi_reader_scenario(
    n_tags: int,
    message_bits: int = 32,
    *,
    n_readers: int = 2,
    collision_mode: str = "naive",
    overlap_fraction: float = 0.3,
    cross_gain_db: float = -6.0,
    handoff_rate_hz: float = 0.0,
    channel_model: Optional[ChannelModel] = None,
    name: Optional[str] = None,
) -> Scenario:
    """A parameterised multi-reader deployment — the fig17 sweep's block.

    Attaches a :class:`~repro.phy.channel.MultiReaderModel` to the dense
    shelf channel class by default. ``handoff_rate_hz`` is per second of
    airtime: a complete session spans ~0.1 s at these link rates, so a
    rate around 20/s gives each tag about two zone crossings per session.
    """
    ensure_positive_int(n_tags, "n_tags")
    model = channel_model if channel_model is not None else DENSE_SHELF
    label = name if name is not None else (
        f"multi-reader-k{n_tags}-r{n_readers}-{collision_mode}"
    )
    return Scenario(
        name=label,
        n_tags=n_tags,
        channel_model=model,
        message_bits=message_bits,
        readers=MultiReaderModel(
            n_readers=n_readers,
            collision_mode=collision_mode,
            overlap_fraction=overlap_fraction,
            cross_gain_db=cross_gain_db,
            handoff_rate_hz=handoff_rate_hz,
        ),
    )


def two_portal_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """Two dock-door portals side by side — the canonical pair deployment.

    Portal-class channels (close range, strong line of sight, like the
    shopping cart) with a modest shared aisle between the two zones.
    """
    return multi_reader_scenario(
        n_tags,
        message_bits,
        n_readers=2,
        collision_mode="capture",
        overlap_fraction=0.25,
        cross_gain_db=-6.0,
        channel_model=PORTAL,
        name=f"two-portal-k{n_tags}",
    )


def dense_floor_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """A retail floor blanketed by four readers with heavy zone overlap.

    Dense-shelf channels and enough overlap that reader-to-reader
    interference is the norm, not the exception — the deployment class
    where the collision-mode ladder separates most.
    """
    return multi_reader_scenario(
        n_tags,
        message_bits,
        n_readers=4,
        collision_mode="interference",
        overlap_fraction=0.5,
        cross_gain_db=-4.0,
        name=f"dense-floor-k{n_tags}",
    )


def handoff_scenario(n_tags: int, message_bits: int = 32) -> Scenario:
    """Conveyor flow: tags stream through consecutive reader zones.

    High handoff rate (~2 zone crossings per full-length session) with a
    wide overlap band, so most tags are mid-crossing at any instant and
    sessions routinely lose members to the next zone — the multi-reader
    analogue of the churn scenario.
    """
    return multi_reader_scenario(
        n_tags,
        message_bits,
        n_readers=3,
        collision_mode="capture",
        overlap_fraction=0.8,
        cross_gain_db=-3.0,
        handoff_rate_hz=20.0,
        name=f"handoff-k{n_tags}",
    )


#: Named location classes any campaign-backed figure can be re-run on.
_SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "default": default_uplink_scenario,
    "errors": error_prone_scenario,
    "challenging": lambda n_tags, **_: challenging_scenario(
        CHALLENGING_SNR_BANDS[2], n_tags=n_tags
    ),
    "cart": shopping_cart_scenario,
    "dense": dense_deployment_scenario,
    "mobile-sparse": mobile_sparse_scenario,
    "mobile-dense": mobile_dense_scenario,
    "churn": churn_scenario,
    "two-portal": two_portal_scenario,
    "dense-floor": dense_floor_scenario,
    "handoff": handoff_scenario,
}

SCENARIO_NAMES: Tuple[str, ...] = tuple(_SCENARIOS)

ScenarioLike = Union[None, str, Callable[[int], Scenario]]


def scenario_by_name(
    name: str, n_tags: int, message_bits: Optional[int] = None
) -> Scenario:
    """Build a named scenario for ``n_tags`` — the CLI's ``--scenario`` hook.

    ``message_bits=None`` keeps each scenario's canonical payload size
    (e.g. the cart's 96-bit messages). ``"challenging"`` uses the middle
    Fig. 12 SNR band (always 32-bit payloads); run
    :mod:`repro.experiments.fig12_challenging` for the full sweep.
    """
    factory = _SCENARIOS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        )
    kwargs = {} if message_bits is None else {"message_bits": message_bits}
    return factory(n_tags, **kwargs)


def resolve_scenario_factory(
    scenario: ScenarioLike,
    default: Callable[[int], Scenario],
    message_bits: Optional[int] = None,
) -> Callable[[int], Scenario]:
    """Normalise a scenario argument (None / name / factory) to a factory.

    ``message_bits`` is forwarded to named scenarios only; an explicit
    factory already fixes its own payload size.
    """
    if scenario is None:
        return default
    if isinstance(scenario, str):
        return lambda k: scenario_by_name(scenario, k, message_bits=message_bits)
    return scenario
