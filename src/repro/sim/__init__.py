"""Discrete-event simulation core: many readers over one tag field.

Everything below :mod:`repro.core` is slot-synchronous under a single
reader — the paper's bench. Real deployments (warehouses, portals, retail
floors) run *many* readers whose interrogation zones overlap and whose
sessions free-run against each other. This package provides:

* :mod:`repro.sim.scheduler` — a monotonic event-heap scheduler with
  deterministic tie-breaking (the pydesim ``Model``/``simulate`` shape);
* :mod:`repro.sim.interference` — FADR-style reader-to-reader collision
  resolution (naive overlap / capture effect / non-orthogonal
  interference);
* :mod:`repro.sim.multireader` — reader actors driving their own rateless
  sessions at their own cadence over a shared, mobile, zone-partitioned
  tag field;
* :mod:`repro.sim.scheme` — the ``multi-reader`` :class:`~repro.engine.
  registry.UplinkScheme` family, which rolls the simulation up into the
  standard :class:`~repro.engine.registry.SchemeRun` so campaigns,
  caching and every executor backend work unchanged.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sim.interference": ("resolve_slot",),
        "repro.sim.multireader": ("MultiReaderOutcome", "simulate_multi_reader"),
        "repro.sim.scheduler": ("EventScheduler",),
        "repro.sim.scheme": ("MultiReaderScheme",),
    },
)
