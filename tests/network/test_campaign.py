"""The paper's location × trace × scheme grid over a network scenario,
declared as a :class:`~repro.engine.CampaignSpec` and run by
:func:`repro.engine.run_campaign`."""

import pytest

from repro.engine import CampaignSpec, run_campaign
from repro.network.metrics import uplink_metrics_from_runs
from repro.network.scenarios import default_uplink_scenario


class TestRunCampaign:
    def test_grid_size(self):
        campaign = run_campaign(
            CampaignSpec(default_uplink_scenario(4), n_locations=2, n_traces=2)
        )
        assert len(campaign.runs) == 2 * 2 * 3  # locations × traces × schemes
        for scheme in ("buzz", "tdma", "cdma"):
            assert len(campaign.by_scheme(scheme)) == 4

    def test_schemes_share_channels(self):
        """Back-to-back methodology: within a location every scheme must see
        the same number of tags and comparable conditions."""
        campaign = run_campaign(
            CampaignSpec(default_uplink_scenario(4), n_locations=1, n_traces=1)
        )
        n_tags = {r.n_tags for r in campaign.runs}
        assert n_tags == {4}

    def test_reproducible(self):
        spec = CampaignSpec(
            default_uplink_scenario(4), root_seed=7, n_locations=1, n_traces=1
        )
        a = run_campaign(spec)
        b = run_campaign(spec)
        for ra, rb in zip(a.runs, b.runs):
            assert ra.duration_s == rb.duration_s
            assert ra.message_loss == rb.message_loss

    def test_subset_of_schemes(self):
        campaign = run_campaign(
            CampaignSpec(
                default_uplink_scenario(4), n_locations=1, n_traces=1, schemes=("tdma",)
            )
        )
        assert {r.scheme for r in campaign.runs} == {"tdma"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(default_uplink_scenario(4), schemes=("aloha",))

    def test_aggregates(self):
        campaign = run_campaign(
            CampaignSpec(default_uplink_scenario(4), n_locations=2, n_traces=1)
        )
        per = {
            s: uplink_metrics_from_runs(s, campaign.by_scheme(s))
            for s in ("buzz", "tdma", "cdma")
        }
        assert per["tdma"].mean_duration_ms > 0
        assert per["buzz"].mean_undecoded >= 0
        assert 0 <= per["cdma"].loss_fraction <= 1

    def test_metrics_builder(self):
        campaign = run_campaign(
            CampaignSpec(default_uplink_scenario(4), n_locations=2, n_traces=1)
        )
        metrics = uplink_metrics_from_runs("buzz", campaign.by_scheme("buzz"))
        assert metrics.n_runs == 2
        assert metrics.mean_duration_ms > 0
        assert "buzz" in str(metrics)

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            uplink_metrics_from_runs("buzz", [])
