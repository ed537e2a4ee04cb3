"""The uplink-scheme contract, its record, and the scheme registry.

Every uplink scheme the campaigns compare (Buzz's rateless code, the TDMA
and CDMA baselines, the complete sessions, the multi-reader simulator) is
exposed through one :class:`UplinkScheme` protocol: draw nothing, mutate
nothing global, take a population + front end + per-run generator, and
return one :class:`SchemeRun`. The campaign executor only ever talks to
this interface, so adding a scheme is a :func:`register_scheme` call — no
campaign code changes, and no per-scheme record-building branches.

The built-in schemes are a static table: each name maps to the module
that defines it, in a fixed order. :func:`get_scheme` imports that module
the first time one of its names is asked for and takes the instances its
``BUILTIN_SCHEMES`` lists. Declaring, checking and planning a campaign
therefore loads no decoder, baseline or simulator; running a cell loads
the one its scheme needs. This module imports none of them.
"""

from __future__ import annotations

import importlib
from dataclasses import KW_ONLY, dataclass
from typing import TYPE_CHECKING, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.phy.channel import COLLISION_MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import BuzzConfig
    from repro.nodes.population import TagPopulation
    from repro.nodes.reader import ReaderFrontEnd

__all__ = [
    "SchemeRun",
    "UplinkScheme",
    "available_schemes",
    "check_scheme",
    "get_scheme",
    "register_scheme",
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
        population: "TagPopulation",
        front_end: "ReaderFrontEnd",
        rng: np.random.Generator,
        config: "BuzzConfig",
        max_slots: Optional[int] = None,
    ) -> SchemeRun:
        """Run one transfer of every tag's message and summarise it."""
        ...


#: Built-in scheme name → the module whose ``BUILTIN_SCHEMES`` defines it,
#: in registration order (the order :func:`available_schemes` reports).
_BUILTIN_MODULES: Dict[str, str] = {
    "buzz": "repro.engine.schemes",
    "tdma": "repro.engine.schemes",
    "cdma": "repro.engine.schemes",
    "silenced": "repro.engine.schemes",
    "buzz-e2e": "repro.engine.session",
    "silenced-e2e": "repro.engine.session",
    "gen2-tdma-e2e": "repro.engine.session",
    "buzz-adaptive": "repro.engine.session",
    "silenced-adaptive": "repro.engine.session",
    "multi-reader": "repro.sim.scheme",
    **{f"multi-reader-{mode}": "repro.sim.scheme" for mode in COLLISION_MODES},
}

#: Resolved schemes: user registrations, and built-ins once loaded.
_REGISTRY: Dict[str, UplinkScheme] = {}


def register_scheme(scheme: UplinkScheme, replace: bool = False) -> UplinkScheme:
    """Add a scheme to the registry under ``scheme.name``.

    Returns the scheme so the call can be used as a decorator-style
    one-liner on an instance. Re-registering an existing name, built-in
    names included whether or not their module has loaded, requires
    ``replace=True`` — silent shadowing would corrupt campaign comparisons.
    """
    name = scheme.name
    if not isinstance(name, str) or not name:
        raise ValueError("scheme.name must be a non-empty string")
    if (name in _REGISTRY or name in _BUILTIN_MODULES) and not replace:
        raise ValueError(f"scheme {name!r} is already registered")
    _REGISTRY[name] = scheme
    return scheme


def check_scheme(name: str) -> None:
    """Raise :func:`get_scheme`'s ``ValueError`` if ``name`` is not
    registered; loads nothing."""
    if name not in _REGISTRY and name not in _BUILTIN_MODULES:
        raise ValueError(
            f"unknown scheme {name!r}; registered: {', '.join(sorted(available_schemes()))}"
        )


def get_scheme(name: str) -> UplinkScheme:
    """Look up a registered scheme by name, loading a built-in's module
    on first use."""
    scheme = _REGISTRY.get(name)
    if scheme is None:
        check_scheme(name)
        # A replacement registered before the module loaded keeps its slot.
        for builtin in importlib.import_module(_BUILTIN_MODULES[name]).BUILTIN_SCHEMES:
            _REGISTRY.setdefault(builtin.name, builtin)
        scheme = _REGISTRY[name]
    return scheme


def available_schemes() -> Tuple[str, ...]:
    """Names of every registered scheme: the built-ins in table order,
    then user registrations in registration order."""
    return (*_BUILTIN_MODULES, *(name for name in _REGISTRY if name not in _BUILTIN_MODULES))
