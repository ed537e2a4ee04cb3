"""Unified scheme engine: one interface, one grid executor.

``repro.engine`` decouples *what* a campaign compares from *how* it runs:

* :mod:`repro.engine.registry` — the :class:`~repro.engine.registry.
  UplinkScheme` protocol, the :class:`~repro.engine.registry.SchemeRun`
  record every scheme returns and every campaign stores, and the scheme
  registry: a static table of the built-in names, each resolved from its
  defining module on first use;
* :mod:`repro.engine.schemes` — the paper's three schemes (``buzz``,
  ``tdma``, ``cdma``) plus the §8.2 ``silenced`` variant;
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
  same root seed, plus the process pool's worker plumbing (the per-child
  bootstrap initializer and the chunked-dispatch sizing);
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

The package names below load their module on first access, so declaring
and planning a campaign imports no decoder, baseline or simulator.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engine.backends": (
            "BACKENDS",
            "CacheQueueBackend",
            "ExecutionContext",
            "ExecutorBackend",
            "ProcessPoolBackend",
            "SerialBackend",
            "resolve_backend",
        ),
        "repro.engine.cache": ("CampaignCache",),
        "repro.engine.campaign": (
            "SCHEMES",
            "CampaignCell",
            "CampaignResult",
            "CampaignSpec",
            "run_campaign",
            "run_cell",
        ),
        "repro.engine.plan": ("CampaignPlan", "PlannedCell", "plan_campaign"),
        "repro.engine.queue": ("run_worker",),
        "repro.engine.registry": (
            "SchemeRun",
            "UplinkScheme",
            "available_schemes",
            "get_scheme",
            "register_scheme",
        ),
        "repro.engine.schemes": (
            "CdmaScheme",
            "RatelessScheme",
            "SilencedScheme",
            "TdmaScheme",
        ),
        "repro.engine.session": ("Gen2Session", "SessionPipeline"),
        "repro.sim.scheme": ("MultiReaderScheme",),
    },
)
