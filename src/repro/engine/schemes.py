"""Unified uplink-scheme interface and registry.

Every uplink scheme the campaigns compare (Buzz's rateless code, the TDMA
and CDMA baselines, and anything a future PR adds) is exposed through one
:class:`UplinkScheme` protocol: draw nothing, mutate nothing global, take a
population + front end + per-run generator, and return one
:class:`SchemeRun`. The campaign executor only ever talks to this
interface, so adding a scheme is a ``register_scheme`` call — no campaign
code changes, and no per-scheme record-building branches.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.baselines.cdma import run_cdma_uplink
from repro.baselines.tdma import run_tdma_uplink
from repro.core.config import BuzzConfig
from repro.core.rateless import run_rateless_uplink
from repro.core.silencing import run_rateless_with_silencing
from repro.nodes.population import TagPopulation
from repro.nodes.reader import ReaderFrontEnd

__all__ = [
    "SchemeRun",
    "UplinkScheme",
    "RatelessScheme",
    "SilencedScheme",
    "TdmaScheme",
    "CdmaScheme",
    "register_scheme",
    "get_scheme",
    "available_schemes",
]


@dataclass(frozen=True)
class SchemeRun:
    """One scheme's outcome on one population draw — the unified record.

    A scheme returns it with no grid coordinates; the campaign's
    :func:`~repro.engine.campaign.run_cell` places it in the grid.

    Attributes
    ----------
    scheme:
        Registry name of the scheme that produced this result.
    duration_s:
        Total airtime of the transfer (query + data).
    message_loss:
        Messages not delivered (Fig. 11/12's error metric).
    n_tags:
        Population size K.
    bits_per_symbol:
        Realised aggregate rate (Fig. 12's right axis).
    slots_used:
        Scheme-specific slot accounting: collision slots for Buzz, K for
        TDMA, the spreading factor for CDMA (Fig. 13 prices CDMA runs off
        this field).
    transmissions:
        Per-tag transmission counts (drives the energy model).
    bit_errors:
        Hamming distance between decoded and true messages.
    identification_s / data_s / retries:
        Stage-resolved accounting, set only by session-pipeline schemes
        (``*-e2e``, ``*-adaptive``): identification airtime, data-phase
        airtime (their sum is exactly ``duration_s``), and the number of
        identification restarts. ``None`` for single-phase schemes and in
        records persisted before the session layer existed. A
        static-field session that recovers nobody still charges its data
        trigger (one query) to ``data_s``; a mobile one charges nothing.
    data_transmissions:
        Per-tag transmission counts of the *data* stages alone (session
        schemes only; ``None`` otherwise). ``transmissions −
        data_transmissions`` is then the identification reflections — each
        a single uplink symbol, which the fig13 energy model prices very
        differently from a P-symbol data transmission.
    reidentifications:
        Mid-session identification re-runs a session performed on a
        mobile field (0 when it never re-identified). ``None`` on static
        fields, sessions included, for single-phase schemes, and in
        pre-mobility records.
    location / trace:
        The grid cell, keyword-only; ``None`` means not placed in a grid.
    """

    scheme: str
    duration_s: float
    message_loss: int
    n_tags: int
    bits_per_symbol: float
    slots_used: int
    transmissions: np.ndarray
    bit_errors: int
    identification_s: Optional[float] = None
    data_s: Optional[float] = None
    retries: Optional[int] = None
    data_transmissions: Optional[np.ndarray] = None
    reidentifications: Optional[int] = None
    _: KW_ONLY
    location: Optional[int] = None
    trace: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-able record of a placed run; floats round-trip exactly
        through ``repr``.

        ``"variant": 0`` is the record layout of the retired config-sweep
        axis; it stays so stored records and their digests keep their
        bytes.
        """
        return {
            "scheme": self.scheme,
            "location": int(self.location),
            "trace": int(self.trace),
            "duration_s": float(self.duration_s),
            "message_loss": int(self.message_loss),
            "n_tags": int(self.n_tags),
            "bits_per_symbol": float(self.bits_per_symbol),
            "slots_used": int(self.slots_used),
            "transmissions": [int(t) for t in self.transmissions],
            "bit_errors": int(self.bit_errors),
            "variant": 0,
            "identification_s": None
            if self.identification_s is None
            else float(self.identification_s),
            "data_s": None if self.data_s is None else float(self.data_s),
            "retries": None if self.retries is None else int(self.retries),
            "data_transmissions": None
            if self.data_transmissions is None
            else [int(t) for t in self.data_transmissions],
            "reidentifications": None
            if self.reidentifications is None
            else int(self.reidentifications),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeRun":
        """Inverse of :meth:`to_dict` (transmissions back to an int array).

        Stage fields default to ``None`` when absent, so records
        persisted before those fields existed load unchanged; ``variant``
        is ignored.
        """
        identification_s = data.get("identification_s")
        data_s = data.get("data_s")
        retries = data.get("retries")
        data_transmissions = data.get("data_transmissions")
        reidentifications = data.get("reidentifications")
        return cls(
            scheme=str(data["scheme"]),
            location=int(data["location"]),
            trace=int(data["trace"]),
            duration_s=float(data["duration_s"]),
            message_loss=int(data["message_loss"]),
            n_tags=int(data["n_tags"]),
            bits_per_symbol=float(data["bits_per_symbol"]),
            slots_used=int(data["slots_used"]),
            transmissions=np.asarray(data["transmissions"], dtype=int),
            bit_errors=int(data["bit_errors"]),
            identification_s=None if identification_s is None else float(identification_s),
            data_s=None if data_s is None else float(data_s),
            retries=None if retries is None else int(retries),
            data_transmissions=None
            if data_transmissions is None
            else np.asarray(data_transmissions, dtype=int),
            reidentifications=None if reidentifications is None else int(reidentifications),
        )


@runtime_checkable
class UplinkScheme(Protocol):
    """The contract every campaign-comparable uplink scheme satisfies."""

    name: str

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        """Run one transfer of every tag's message and summarise it."""
        ...


class RatelessScheme:
    """Buzz's data phase: the distributed rateless collision code (§6).

    Draws fresh temporary ids from ``rng`` before the transfer (the
    campaign's per-run randomised schedule), then runs
    :func:`repro.core.rateless.run_rateless_uplink` with genie channel
    knowledge — matching the paper's §9 setup where identification is
    evaluated separately.
    """

    name = "buzz"

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        n = len(population)
        id_space = 10 * n * n
        for tag in population.tags:
            tag.draw_temp_id(id_space, rng)
        run = self._transfer(
            population.tags, front_end, rng, config=config, max_slots=max_slots
        )
        return SchemeRun(
            scheme=self.name,
            duration_s=run.duration_s,
            message_loss=run.message_loss,
            n_tags=n,
            bits_per_symbol=run.bits_per_symbol(),
            slots_used=run.slots_used,
            transmissions=run.transmissions.copy(),
            bit_errors=run.bit_errors,
        )

    def _transfer(self, tags, front_end, rng, **kwargs):
        return run_rateless_uplink(tags, front_end, rng, **kwargs)


class SilencedScheme(RatelessScheme):
    """The §8.2 design alternative: rateless code with ACK silencing.

    Same data phase as :class:`RatelessScheme`, but after each decode round
    the reader ACKs every newly verified tag (echoing its temporary id at
    downlink rate) and ACKed tags drop out of later slots. The ACK airtime
    is folded into ``duration_s``, so campaign comparisons price the
    paper's trade-off — silencing saves per-tag transmissions (energy) but
    the downlink overhead erodes the transfer-time win.
    """

    name = "silenced"

    def _transfer(self, tags, front_end, rng, **kwargs):
        return run_rateless_with_silencing(tags, front_end, rng, **kwargs)


class TdmaScheme:
    """The Gen-2 baseline: sequential Miller-4 transmissions."""

    name = "tdma"

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        run = run_tdma_uplink(population.tags, front_end, rng)
        return SchemeRun(
            scheme=self.name,
            duration_s=run.duration_s,
            message_loss=run.message_loss,
            n_tags=len(population),
            bits_per_symbol=run.bits_per_symbol(),
            slots_used=len(population),
            transmissions=run.transmissions.copy(),
            bit_errors=run.bit_errors,
        )


class CdmaScheme:
    """The synchronous-CDMA baseline with on-off Walsh spreading."""

    name = "cdma"

    def run(
        self,
        population: TagPopulation,
        front_end: ReaderFrontEnd,
        rng: np.random.Generator,
        config: BuzzConfig,
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        run = run_cdma_uplink(population.tags, front_end, rng)
        return SchemeRun(
            scheme=self.name,
            duration_s=run.duration_s,
            message_loss=run.message_loss,
            n_tags=len(population),
            bits_per_symbol=run.bits_per_symbol(),
            slots_used=run.spreading_factor,
            transmissions=run.transmissions.copy(),
            bit_errors=run.bit_errors,
        )


_REGISTRY: Dict[str, UplinkScheme] = {}


def register_scheme(scheme: UplinkScheme, replace: bool = False) -> UplinkScheme:
    """Add a scheme to the registry under ``scheme.name``.

    Returns the scheme so the call can be used as a decorator-style
    one-liner on an instance. Re-registering an existing name requires
    ``replace=True`` — silent shadowing would corrupt campaign comparisons.
    """
    name = scheme.name
    if not isinstance(name, str) or not name:
        raise ValueError("scheme.name must be a non-empty string")
    if name in _REGISTRY and not replace:
        raise ValueError(f"scheme {name!r} is already registered")
    _REGISTRY[name] = scheme
    return scheme


def get_scheme(name: str) -> UplinkScheme:
    """Look up a registered scheme by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_schemes() -> Tuple[str, ...]:
    """Names of every registered scheme, in registration order."""
    return tuple(_REGISTRY)


register_scheme(RatelessScheme())
register_scheme(TdmaScheme())
register_scheme(CdmaScheme())
register_scheme(SilencedScheme())
