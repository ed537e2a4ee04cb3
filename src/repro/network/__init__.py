"""Network-level simulation glue: scenarios and metrics.

The paper's methodology (§9) is "ten different locations, five traces per
scheme at each location, schemes run back-to-back without moving anything".
A :class:`~repro.network.scenarios.Scenario` fixes the channel statistics of
a location class; a :class:`~repro.engine.campaign.CampaignSpec` over it,
run by :func:`repro.engine.run_campaign`, draws locations and re-runs every
scheme on the *same* channel realisation; :mod:`repro.network.metrics`
aggregates the per-scheme metrics the figures plot.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.network.metrics": ("UplinkMetrics", "uplink_metrics_from_runs"),
        "repro.network.scenarios": (
            "CHALLENGING_SNR_BANDS",
            "Scenario",
            "challenging_scenario",
            "default_uplink_scenario",
            "shopping_cart_scenario",
        ),
    },
)
