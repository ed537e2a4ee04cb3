"""Unified scheme engine: one interface, one grid executor.

``repro.engine`` decouples *what* a campaign compares from *how* it runs:

* :mod:`repro.engine.schemes` — the :class:`~repro.engine.schemes.
  UplinkScheme` protocol, the :class:`~repro.engine.schemes.SchemeRun`
  record every scheme returns and every campaign stores, and a registry
  holding the paper's three schemes (``buzz``, ``tdma``, ``cdma``) plus
  the §8.2 ``silenced`` variant;
* :mod:`repro.engine.campaign` — the declarative
  :class:`~repro.engine.campaign.CampaignSpec` grid (locations × traces ×
  schemes under one config; a config sweep is a list of specs), its
  deterministic cell evaluator, and
  :func:`~repro.engine.campaign.run_campaign`, the one entry point every
  campaign figure calls;
* :mod:`repro.engine.plan` — the pipeline's first stage: enumerate the
  grid, give every cell a content address, resolve cache hits into a
  :class:`~repro.engine.plan.CampaignPlan`;
* :mod:`repro.engine.backends` — the
  :class:`~repro.engine.backends.ExecutorBackend` interface and its three
  built-ins (``serial``, chunked ``process-pool``, multi-host
  ``cache-queue``), named by :data:`~repro.engine.backends.BACKENDS` or
  passed as configured instances, every backend bit-identical for the
  same root seed;
* :mod:`repro.engine.executors` — shared worker-process plumbing (the
  per-child bootstrap initializer and the chunked-dispatch sizing);
* :mod:`repro.engine.queue` — the work queue's worker loop
  (``python -m repro worker``): claim cells by lease, execute, store;
* :mod:`repro.engine.cache` — per-cell result cache addressed by each
  cell's content key, so re-running a campaign with ``cache_dir`` set only
  executes new cells — and the lease/queue medium the distributed backend
  coordinates through;
* :mod:`repro.engine.session` — the two complete sessions:
  :class:`~repro.engine.session.SessionPipeline`, Buzz's identify →
  data-segment loop on the *recovered* ids and *estimated* channels
  (``buzz-e2e``, ``silenced-e2e``, and the adaptive ``buzz-adaptive`` /
  ``silenced-adaptive`` that re-identify mid-session when a mobile data
  phase stalls), and :class:`~repro.engine.session.Gen2Session`, the
  FSA → TDMA baseline (``gen2-tdma-e2e``).
"""

from repro.engine.cache import CampaignCache
from repro.engine.backends import (
    BACKENDS,
    CacheQueueBackend,
    ExecutionContext,
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.engine.campaign import (
    SCHEMES,
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    run_campaign,
    run_cell,
)
from repro.engine.plan import CampaignPlan, PlannedCell, plan_campaign
from repro.engine.queue import run_worker
from repro.engine.schemes import (
    CdmaScheme,
    RatelessScheme,
    SchemeRun,
    SilencedScheme,
    TdmaScheme,
    UplinkScheme,
    available_schemes,
    get_scheme,
    register_scheme,
)
from repro.engine.session import Gen2Session, SessionPipeline

# Importing the sim scheme module registers the ``multi-reader`` family
# (same side-effect pattern as the session schemes above).
from repro.sim.scheme import MultiReaderScheme

__all__ = [
    "BACKENDS",
    "SCHEMES",
    "CacheQueueBackend",
    "CampaignCache",
    "CampaignCell",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "CdmaScheme",
    "ExecutionContext",
    "ExecutorBackend",
    "Gen2Session",
    "MultiReaderScheme",
    "PlannedCell",
    "ProcessPoolBackend",
    "RatelessScheme",
    "SchemeRun",
    "SerialBackend",
    "SessionPipeline",
    "SilencedScheme",
    "TdmaScheme",
    "UplinkScheme",
    "available_schemes",
    "get_scheme",
    "plan_campaign",
    "register_scheme",
    "resolve_backend",
    "run_campaign",
    "run_cell",
    "run_worker",
]
