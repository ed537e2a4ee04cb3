"""Golden-seed regression tests for the mobility-aware session schemes.

Pins the engine contracts on the *new* schemes the mobility layer
registered: serial ≡ parallel bit-identity per root seed, zero-cell cache
re-runs, backward-compatible persistence (PR-3-era records without the
mobility fields still load), and the headline acceptance claim — on the
mobile-dense scenario, the adaptive session's verified-message goodput
strictly beats the static end-to-end session under nonzero drift.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine.campaign import CampaignResult, CampaignSpec, run_campaign
from repro.engine.session import SessionPipeline
from repro.network.scenarios import mobile_dense_scenario, scenario_by_name

FIXTURES = Path(__file__).parent / "data"

ADAPTIVE = ("buzz-adaptive", "silenced-adaptive")


def _record(run):
    return (
        run.scheme,
        run.location,
        run.trace,
        float(run.duration_s),
        None if run.identification_s is None else float(run.identification_s),
        None if run.data_s is None else float(run.data_s),
        None if run.retries is None else int(run.retries),
        None if run.reidentifications is None else int(run.reidentifications),
        int(run.message_loss),
        int(run.slots_used),
        int(run.bit_errors),
        [int(t) for t in run.transmissions],
        None
        if run.data_transmissions is None
        else [int(t) for t in run.data_transmissions],
    )


class TestSerialParallelParity:
    def test_adaptive_schemes_serial_equals_parallel_on_mobile_scenario(self):
        """Acceptance: all new schemes are serial ≡ parallel bit-identical
        per root seed, on a scenario whose mobility path actually runs."""
        spec = CampaignSpec(
            scenario=scenario_by_name("mobile-dense", 6),
            root_seed=77,
            n_locations=2,
            n_traces=1,
            schemes=ADAPTIVE,
        )
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=4)
        assert [_record(r) for r in serial.runs] == [_record(r) for r in parallel.runs]
        for run in serial.runs:
            assert run.duration_s == run.identification_s + run.data_s
            assert run.reidentifications is not None

    def test_churn_scenario_serial_equals_parallel(self):
        spec = CampaignSpec(
            scenario=scenario_by_name("churn", 5),
            root_seed=78,
            n_locations=2,
            n_traces=1,
            schemes=("buzz-adaptive",),
        )
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=2)
        assert [_record(r) for r in serial.runs] == [_record(r) for r in parallel.runs]


class TestCacheRoundTrip:
    def test_rerun_executes_zero_cells(self, tmp_path, monkeypatch):
        """Acceptance: a repeat adaptive campaign against the same cache
        directory loads every cell — the pipelines never execute."""
        spec = CampaignSpec(
            scenario=scenario_by_name("mobile-dense", 5),
            root_seed=79,
            n_locations=2,
            n_traces=1,
            schemes=("buzz-adaptive",),
        )
        first = run_campaign(spec, cache_dir=str(tmp_path))

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: session executed on re-run")

        monkeypatch.setattr(SessionPipeline, "run", boom)
        second = run_campaign(spec, cache_dir=str(tmp_path))
        assert [_record(r) for r in second.runs] == [_record(r) for r in first.runs]
        # The mobility fields survive the JSON cache cells.
        assert second.runs[0].reidentifications is not None
        assert second.runs[0].data_transmissions is not None


class TestBackwardCompatPersistence:
    def test_pr3_era_json_loads_with_mobility_fields_none(self):
        """Satellite: a PR-3-era result (stage fields present, mobility
        fields absent) must load with the new fields defaulting to None."""
        result = CampaignResult.from_json(
            (FIXTURES / "pr3_campaign_result.json").read_text()
        )
        assert result.scenario_name == "uplink-k4"
        assert len(result.runs) == 2
        for run in result.runs:
            assert run.identification_s is not None  # PR-3 fields intact
            assert run.duration_s == pytest.approx(
                run.identification_s + run.data_s
            )
            assert run.data_transmissions is None
            assert run.reidentifications is None
        # A re-serialisation round-trips the Nones explicitly…
        again = CampaignResult.from_json(result.to_json())
        assert [_record(r) for r in again.runs] == [_record(r) for r in result.runs]
        payload = json.loads(result.to_json())
        assert payload["runs"][0]["data_transmissions"] is None
        assert payload["runs"][0]["reidentifications"] is None

    def test_new_fields_round_trip_through_json(self):
        spec = CampaignSpec(
            scenario=scenario_by_name("mobile-dense", 4),
            root_seed=80,
            n_locations=1,
            n_traces=1,
            schemes=("buzz-adaptive",),
        )
        result = run_campaign(spec)
        restored = CampaignResult.from_json(result.to_json())
        assert [_record(r) for r in restored.runs] == [_record(r) for r in result.runs]
        assert restored.runs[0].data_transmissions is not None


class TestMobileDenseAcceptance:
    def test_adaptive_goodput_strictly_beats_static_under_drift(self):
        """The PR's headline claim, pinned on a golden seed: on
        mobile-dense (nonzero drift), buzz-adaptive delivers strictly more
        verified messages per second of session airtime than buzz-e2e."""
        scenario = mobile_dense_scenario(10)
        assert scenario.mobility.drift_rate_hz > 0
        campaign = run_campaign(
            CampaignSpec(
                scenario=scenario,
                root_seed=17,
                n_locations=2,
                n_traces=1,
                schemes=("buzz-e2e", "buzz-adaptive"),
            ),
            jobs=2,
        )

        def goodput(scheme):
            runs = campaign.by_scheme(scheme)
            return float(
                np.mean([(r.n_tags - r.message_loss) / r.duration_s for r in runs])
            )

        static, adaptive = goodput("buzz-e2e"), goodput("buzz-adaptive")
        assert adaptive > static
        # And it got there by actually re-identifying at least once.
        assert sum(r.reidentifications for r in campaign.by_scheme("buzz-adaptive")) > 0
