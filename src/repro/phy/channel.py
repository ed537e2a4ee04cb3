"""Single-tap channel models for backscatter links.

The paper (§2, Eq. 3) models each tag's channel as one complex number
``h_i``; the magnitude is set by the *round-trip* backscatter path loss
(reader → tag → reader) and the phase by geometry. Tags at different
distances therefore present very different amplitudes at the reader — the
**near-far effect** §6(d) discusses.

:class:`ChannelModel` is the experiment-facing sampler: it draws a vector of
per-tag coefficients from a distance distribution plus Rician small-scale
fading, and reports the implied per-tag SNRs for a given noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.units import db_to_power, power_to_db
from repro.utils.validation import ensure_positive, ensure_positive_int

__all__ = [
    "ChannelModel",
    "MobilityModel",
    "ChannelTrajectory",
    "MultiReaderModel",
    "ZoneTrajectory",
    "COLLISION_MODES",
    "COHERENCE_S",
    "ARRIVAL_WINDOW_S",
    "CAPTURE_MARGIN_DB",
    "CADENCE_SPREAD",
]

#: Block length (s) of the block-fading process: channels hold within one.
COHERENCE_S = 0.005
#: Width (s) of the window late arrivals enter the field within.
ARRIVAL_WINDOW_S = 0.05
#: Power advantage (dB) the ``"capture"`` mode needs to keep a slot clean.
CAPTURE_MARGIN_DB = 6.0
#: Reader *r* of *R* runs its slots every ``slot_s · (1 + CADENCE_SPREAD · r / R)``.
CADENCE_SPREAD = 0.1

#: Reader-to-reader interference resolutions the multi-reader simulator
#: supports — the FADR collision-model ladder:
#:
#: * ``"naive"``  — any temporal overlap with a foreign reflection in the
#:   zone corrupts the slot (both-lost, FADR mode 0);
#: * ``"capture"`` — the slot survives cleanly when the desired power
#:   exceeds the interference by the capture margin (FADR mode 1);
#: * ``"interference"`` — non-orthogonal superposition: the slot is never
#:   discarded, the foreign energy lands in the received symbols as extra
#:   noise (FADR mode 2).
COLLISION_MODES: Tuple[str, ...] = ("naive", "capture", "interference")


@dataclass
class ChannelModel:
    """Sampler of per-tag single-tap channels for a deployment.

    Parameters
    ----------
    mean_snr_db:
        Average per-tag SNR (power dB) when the tag sits at the reference
        distance. Together with ``noise_std`` this pins the absolute scale.
    near_far_db:
        Peak-to-peak near-far *power* spread across tags, realised through a
        log-uniform distance draw. 0 disables the near-far effect.
    rician_k_db:
        Rician K-factor of small-scale fading (power ratio of the fixed LoS
        component to the scattered component). Large K ≈ deterministic
        channel; ``-inf``-like small values approach Rayleigh. The paper's
        bench-top links are strongly line-of-sight, so the default is 10 dB.
    noise_std:
        Std of the complex AWGN at the reader (per complex dimension the
        std is ``noise_std / sqrt(2)``).
    """

    mean_snr_db: float = 20.0
    near_far_db: float = 12.0
    rician_k_db: float = 10.0
    noise_std: float = 1.0
    _mean_gain: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        ensure_positive(self.noise_std, "noise_std")
        if self.near_far_db < 0:
            raise ValueError("near_far_db must be >= 0")
        # Amplitude such that a tag at the centre of the near-far range sits
        # at mean_snr_db above the noise floor.
        self._mean_gain = float(np.sqrt(db_to_power(self.mean_snr_db)) * self.noise_std)

    def sample(self, n_tags: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_tags`` complex channel coefficients.

        The amplitude of tag *i* is the mean gain scaled by a log-uniform
        factor spanning ``near_far_db`` of power, then perturbed by Rician
        fading; the phase of the LoS component is uniform.
        """
        ensure_positive_int(n_tags, "n_tags")
        # Near-far: log-uniform power offsets in [-near_far_db/2, +near_far_db/2].
        offsets_db = rng.uniform(-self.near_far_db / 2.0, self.near_far_db / 2.0, size=n_tags)
        amplitudes = self._mean_gain * np.sqrt(db_to_power(offsets_db))

        # Rician fading around the LoS component.
        k_lin = float(db_to_power(self.rician_k_db))
        los_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_tags)
        los = np.sqrt(k_lin / (k_lin + 1.0)) * np.exp(1j * los_phase)
        scatter = (
            rng.standard_normal(n_tags) + 1j * rng.standard_normal(n_tags)
        ) / np.sqrt(2.0 * (k_lin + 1.0))
        return amplitudes * (los + scatter)

    def snrs_db(self, channels: Sequence[complex]) -> np.ndarray:
        """Per-tag SNRs (power dB) implied by a channel draw."""
        mags = np.abs(np.asarray(channels, dtype=complex))
        return power_to_db(mags**2 / self.noise_std**2)

    def snr_range_db(self, channels: Sequence[complex]) -> Tuple[float, float]:
        """(min, max) per-tag SNR of a draw — the paper's Fig. 12 x-axis."""
        snrs = self.snrs_db(channels)
        return float(snrs.min()), float(snrs.max())


@dataclass(frozen=True)
class MobilityModel:
    """Time-varying deployment statistics: block-fading drift plus churn.

    The static :class:`ChannelModel` draws one coefficient per tag and
    holds it for the whole session — the paper's §9 bench. Warehouse and
    supply-chain deployments are mobile: tags ride conveyors and carts, so
    channels drift *during* a session and tags enter or leave the read
    field mid-way. This model pins both effects with three rates;
    :class:`ChannelTrajectory` realises one draw of them. The fading block
    (:data:`COHERENCE_S`) and the late-arrival window
    (:data:`ARRIVAL_WINDOW_S`) are the same for every deployment.

    Attributes
    ----------
    drift_rate_hz:
        Channel decorrelation rate (1/s) of the Gauss–Markov block-fading
        process: two samples ``t`` seconds apart correlate as
        ``exp(-drift_rate_hz · t)``. 0 disables drift.
    departure_rate_hz:
        Per-tag Poisson rate of leaving the field (1/s); a departed tag
        stops reflecting for good (total fade). 0 disables departures.
    late_arrival_fraction:
        Fraction of tags not yet in the field when the session starts;
        they arrive uniformly within :data:`ARRIVAL_WINDOW_S` and stay
        silent until identified.
    """

    drift_rate_hz: float = 0.0
    departure_rate_hz: float = 0.0
    late_arrival_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.drift_rate_hz < 0:
            raise ValueError("drift_rate_hz must be >= 0")
        if self.departure_rate_hz < 0:
            raise ValueError("departure_rate_hz must be >= 0")
        if not 0.0 <= self.late_arrival_fraction <= 1.0:
            raise ValueError("late_arrival_fraction must be in [0, 1]")

    @property
    def is_static(self) -> bool:
        """True when every rate is zero — the model degenerates to static."""
        return (
            self.drift_rate_hz == 0.0
            and self.departure_rate_hz == 0.0
            and self.late_arrival_fraction == 0.0
        )


class ChannelTrajectory:
    """One realisation of a :class:`MobilityModel` over a tag population.

    Arrival/departure times are drawn up front; fading blocks are extended
    lazily (and cached) as later times are queried, each block one
    Gauss–Markov step from the previous:

    ``h[b] = ρ·h[b−1] + √(1−ρ²)·σ_i·CN(0, 1)``, ``ρ = exp(−drift·T_block)``

    with ``σ_i = |h_i(0)|`` so each tag keeps its mean reflection power
    (the tag moves *within* its range class; gross range changes are
    churn's job). All draws come from the dedicated ``rng`` handed in, so a
    trajectory is a pure function of ``(base_channels, model, seed)`` —
    the campaign engine's determinism contract extends to mobile cells.

    Parameters
    ----------
    base_channels:
        The population's channel draw at ``t = 0``.
    model:
        The rates to realise.
    rng:
        Dedicated generator (do not share it with the PHY noise stream).
    arrivals / departures:
        Explicit per-tag schedules override the random draw — the
        failure-injection hook (e.g. "tag 0 fades at t = 4 ms").
    """

    def __init__(
        self,
        base_channels: Sequence[complex],
        model: MobilityModel,
        rng: np.random.Generator,
        arrivals: Optional[Sequence[float]] = None,
        departures: Optional[Sequence[float]] = None,
    ):
        self.base = np.asarray(base_channels, dtype=complex).ravel().copy()
        self.model = model
        self._rng = rng
        n = self.base.size
        if arrivals is None:
            late = rng.random(n) < model.late_arrival_fraction
            arrivals = np.where(
                late, rng.uniform(0.0, ARRIVAL_WINDOW_S, size=n), 0.0
            )
        self.arrivals = np.asarray(arrivals, dtype=float).ravel().copy()
        if self.arrivals.size != n:
            raise ValueError("arrivals must have one entry per tag")
        if departures is None:
            if model.departure_rate_hz > 0.0:
                departures = self.arrivals + rng.exponential(
                    1.0 / model.departure_rate_hz, size=n
                )
            else:
                departures = np.full(n, np.inf)
        self.departures = np.asarray(departures, dtype=float).ravel().copy()
        if self.departures.size != n:
            raise ValueError("departures must have one entry per tag")
        self._rho = float(np.exp(-model.drift_rate_hz * COHERENCE_S))
        self._sigma = np.abs(self.base)
        self._blocks: list = [self.base.copy()]

    def __len__(self) -> int:
        return int(self.base.size)

    def _extend_to(self, block: int) -> None:
        while len(self._blocks) <= block:
            prev = self._blocks[-1]
            if self.model.drift_rate_hz == 0.0:
                self._blocks.append(prev)
                continue
            n = self.base.size
            innovation = (
                self._rng.standard_normal(n) + 1j * self._rng.standard_normal(n)
            ) / np.sqrt(2.0)
            step = self._rho * prev + np.sqrt(1.0 - self._rho**2) * self._sigma * innovation
            self._blocks.append(step)

    def block_index(self, t_s: float) -> int:
        """Fading-block index containing time ``t_s``."""
        if t_s < 0:
            raise ValueError("time must be >= 0")
        return int(t_s / COHERENCE_S)

    def channels_at(self, t_s: float) -> np.ndarray:
        """Per-tag channel coefficients during the block containing ``t_s``."""
        block = self.block_index(t_s)
        self._extend_to(block)
        return self._blocks[block]

    def active_at(self, t_s: float) -> np.ndarray:
        """Boolean mask of tags physically in the field at ``t_s``."""
        return (self.arrivals <= t_s) & (t_s < self.departures)

    def correlation(self, t_s: float) -> float:
        """Expected correlation between ``h(0)`` and ``h(t_s)`` under drift."""
        if t_s < 0:
            raise ValueError("time must be >= 0")
        return float(self._rho ** self.block_index(t_s))


@dataclass(frozen=True)
class MultiReaderModel:
    """Deployment statistics of a multi-reader field (portals, floors).

    Readers sit on a ring; every tag has a *home* reader (the zone it
    occupies, and the only session it participates in) and, with
    probability ``overlap_fraction``, also lies in the overlap region
    shared with the next reader on the ring — where its reflections reach
    both readers and reader-to-reader interference happens. Mobility
    between zones is a per-tag Poisson handoff process: each event moves
    the tag to the next reader on the ring (conveyor/portal flow), and
    :class:`ZoneTrajectory` realises one draw of it. The capture margin
    (:data:`CAPTURE_MARGIN_DB`) and the readers' cadence spread
    (:data:`CADENCE_SPREAD`) are the same for every deployment.

    Attributes
    ----------
    n_readers:
        Number of concurrently interrogating readers (R).
    collision_mode:
        One of :data:`COLLISION_MODES` — how a reader resolves slots that
        temporally overlap a foreign reflection from its zone.
    overlap_fraction:
        Probability that a tag sits in the overlap between its home zone
        and the next; 0 makes the zones disjoint (no interference at all).
    cross_gain_db:
        Power attenuation of an overlap tag's reflection at the *non-home*
        reader relative to its in-zone gain (≤ 0 dB: the foreign reader is
        further away).
    handoff_rate_hz:
        Per-tag Poisson rate (1/s) of moving to the next zone; 0 pins
        every tag to its initial home.
    """

    n_readers: int = 2
    collision_mode: str = "naive"
    overlap_fraction: float = 0.3
    cross_gain_db: float = -6.0
    handoff_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_readers, "n_readers")
        if self.collision_mode not in COLLISION_MODES:
            raise ValueError(
                f"collision_mode must be one of {COLLISION_MODES}, "
                f"got {self.collision_mode!r}"
            )
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")
        if self.cross_gain_db > 0.0:
            raise ValueError("cross_gain_db must be <= 0 (an attenuation)")
        if self.handoff_rate_hz < 0:
            raise ValueError("handoff_rate_hz must be >= 0")


class ZoneTrajectory:
    """One realisation of zone membership over time for a tag population.

    The companion of :class:`ChannelTrajectory` on the *spatial* axis:
    where that class answers "what is tag *i*'s channel at time *t*",
    this one answers "which reader's zone does tag *i* occupy at *t*, and
    which readers can hear it". Handoff times are drawn up front (per tag,
    Poisson at ``model.handoff_rate_hz`` over ``[0, horizon_s)``), each
    event advancing the tag to the next reader on the ring, so membership
    is a pure function of ``(n_tags, model, seed)`` — the campaign
    engine's determinism contract extends to multi-reader cells. Overlap
    flags are drawn once per tag and travel with it: an overlap tag is
    always also covered by the zone *after* its current home.

    Parameters
    ----------
    n_tags:
        Population size.
    model:
        The deployment statistics to realise.
    rng:
        Dedicated generator (do not share it with the PHY noise stream).
    horizon_s:
        Time span over which handoff events are materialised; queries past
        it see no further handoffs. Callers size it from their slot
        budget.
    """

    def __init__(
        self,
        n_tags: int,
        model: MultiReaderModel,
        rng: np.random.Generator,
        horizon_s: float = 1.0,
    ):
        ensure_positive_int(n_tags, "n_tags")
        ensure_positive(horizon_s, "horizon_s")
        self.model = model
        self.horizon_s = float(horizon_s)
        r = model.n_readers
        # Round-robin initial assignment keeps zones balanced at every
        # population size; the rng-drawn offset decorrelates which tags
        # share a zone across locations.
        offset = int(rng.integers(0, r)) if r > 1 else 0
        self.home0 = (np.arange(n_tags) + offset) % r
        self.overlap = (
            rng.random(n_tags) < model.overlap_fraction
            if r > 1
            else np.zeros(n_tags, dtype=bool)
        )
        self._handoffs: list = []
        for _ in range(n_tags):
            times: list = []
            if r > 1 and model.handoff_rate_hz > 0.0:
                t = float(rng.exponential(1.0 / model.handoff_rate_hz))
                while t < self.horizon_s:
                    times.append(t)
                    t += float(rng.exponential(1.0 / model.handoff_rate_hz))
            self._handoffs.append(np.asarray(times, dtype=float))

    def __len__(self) -> int:
        return int(self.home0.size)

    @property
    def n_readers(self) -> int:
        return self.model.n_readers

    def home_at(self, t_s: float) -> np.ndarray:
        """Per-tag home-reader index at time ``t_s``."""
        if t_s < 0:
            raise ValueError("time must be >= 0")
        hops = np.array(
            [np.searchsorted(h, t_s, side="right") for h in self._handoffs],
            dtype=int,
        )
        return (self.home0 + hops) % self.n_readers

    def coverage_at(self, t_s: float) -> np.ndarray:
        """Boolean ``(n_readers, n_tags)`` zone-coverage matrix at ``t_s``.

        Row *r* marks the tags whose reflections reader *r* receives: its
        own zone's tags plus the overlap tags of the previous zone on the
        ring. Exactly the condition under which two readers' interrogation
        zones both cover a reflecting tag — the interference predicate.
        """
        home = self.home_at(t_s)
        cover = np.zeros((self.n_readers, len(self)), dtype=bool)
        cover[home, np.arange(len(self))] = True
        if self.n_readers > 1:
            second = (home + 1) % self.n_readers
            idx = np.flatnonzero(self.overlap)
            cover[second[idx], idx] = True
        return cover

    def handoff_count(self, t_s: float) -> int:
        """Total handoff events realised up to ``t_s`` (diagnostics)."""
        return int(
            sum(np.searchsorted(h, t_s, side="right") for h in self._handoffs)
        )


def channels_for_snr_band(
    n_tags: int,
    snr_low_db: float,
    snr_high_db: float,
    rng: np.random.Generator,
    noise_std: float = 1.0,
) -> np.ndarray:
    """Draw channels whose per-tag SNRs are uniform in a target dB band.

    Used by the Fig. 12 challenging-channel sweep, where the paper reports
    results per observed SNR range rather than per distance.
    """
    ensure_positive_int(n_tags, "n_tags")
    if snr_high_db < snr_low_db:
        raise ValueError("snr_high_db must be >= snr_low_db")
    snrs_db = rng.uniform(snr_low_db, snr_high_db, size=n_tags)
    amplitudes = np.sqrt(db_to_power(snrs_db)) * noise_std
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_tags)
    return amplitudes * np.exp(1j * phases)
