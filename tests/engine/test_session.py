"""Tests for repro.engine.session — the end-to-end session pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.core.identification import identify
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import run_rateless_uplink
from repro.engine.campaign import CampaignResult, CampaignSpec, SchemeRun, run_campaign
from repro.engine.schemes import UplinkScheme, available_schemes, get_scheme
from repro.engine.session import SessionPipeline
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.network.scenarios import default_uplink_scenario, scenario_by_name
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag
from repro.utils.rng import SeedSequenceFactory

E2E = ("buzz-e2e", "silenced-e2e", "gen2-tdma-e2e")

FIXTURES = Path(__file__).parent / "data"


def _location(n_tags=6, seed=5):
    seeds = SeedSequenceFactory(seed)
    population = default_uplink_scenario(n_tags).draw_population(
        seeds.stream("location", 0)
    )
    return population, ReaderFrontEnd(noise_std=population.noise_std), seeds


def _record(run):
    return (
        run.scheme,
        run.location,
        run.trace,
        float(run.duration_s),
        None if run.identification_s is None else float(run.identification_s),
        None if run.data_s is None else float(run.data_s),
        None if run.retries is None else int(run.retries),
        int(run.message_loss),
        int(run.slots_used),
        int(run.bit_errors),
        [int(t) for t in run.transmissions],
    )


class TestRegistry:
    def test_e2e_schemes_registered(self):
        assert set(available_schemes()) >= set(E2E)

    @pytest.mark.parametrize("name", E2E)
    def test_pipelines_satisfy_scheme_protocol(self, name):
        assert isinstance(get_scheme(name), UplinkScheme)


class TestSessionResults:
    @pytest.mark.parametrize("name", E2E)
    def test_duration_decomposes_exactly(self, name):
        """The acceptance criterion: duration_s == identification_s + data_s,
        as floats, not approximately."""
        population, front_end, seeds = _location()
        result = get_scheme(name).run(
            population, front_end, seeds.stream("trace", 0, 0, name), config=BuzzConfig()
        )
        assert result.identification_s is not None and result.data_s is not None
        assert result.duration_s == result.identification_s + result.data_s
        assert result.identification_s > 0 and result.data_s > 0
        assert result.retries >= 0

    def test_single_phase_schemes_carry_no_stage_fields(self):
        population, front_end, seeds = _location()
        result = get_scheme("buzz").run(
            population, front_end, seeds.stream("trace", 0, 0, "buzz"), config=BuzzConfig()
        )
        assert result.identification_s is None
        assert result.data_s is None
        assert result.retries is None

    def test_transmissions_cover_both_stages(self):
        """The session's per-tag counts include identification reflections,
        so they strictly exceed the data stage's own counts."""
        population, front_end, seeds = _location()
        pipeline = get_scheme("buzz-e2e")
        result = pipeline.run(
            population, front_end, seeds.stream("trace", 0, 0, "buzz-e2e"),
            config=BuzzConfig(),
        )
        assert result.transmissions.shape == (len(population),)
        # Identification alone costs every tag ≥ 1 bucket reflection plus
        # Stage-1/Stage-3 slots, so each tag's count exceeds any plausible
        # pure-data count of a session this short.
        assert np.all(result.transmissions >= 1)
        data_only = get_scheme("buzz").run(
            population, front_end, seeds.stream("trace", 0, 0, "buzz"),
            config=BuzzConfig(),
        )
        assert result.transmissions.sum() > data_only.transmissions.sum()

    def test_e2e_decodes_everyone_on_good_channels(self):
        population, front_end, seeds = _location(n_tags=6, seed=11)
        result = get_scheme("buzz-e2e").run(
            population, front_end, seeds.stream("t"), config=BuzzConfig()
        )
        assert result.message_loss == 0
        assert result.bit_errors == 0


class TestStaticSessionAccounting:
    """A static field runs the session loop with no trajectory; its pinned
    accounting must hold: no re-identification count, and a session that
    recovers nobody still charges its data trigger to ``data_s``."""

    def test_recovered_nobody_charges_one_trigger(self):
        # challenging at K = 1, root 7: identification recovers nobody in
        # every cell of the 2 × 2 grid.
        spec = CampaignSpec(
            scenario=scenario_by_name("challenging", 1),
            root_seed=7,
            n_locations=2,
            n_traces=2,
            schemes=("buzz-e2e", "silenced-e2e", "buzz-adaptive"),
        )
        runs = run_campaign(spec).runs
        assert len(runs) == 12
        for run in runs:
            assert run.slots_used == 0
            assert run.message_loss == run.n_tags
            assert run.data_s == GEN2_DEFAULT_TIMING.query_duration_s()
            assert run.duration_s == run.identification_s + run.data_s
            assert run.reidentifications is None


class TestRetryLoop:
    def _force_first_attempt_collision(self, monkeypatch):
        """All tags draw the same temporary id on the first Stage-2 pass."""
        calls = {"n": 0}
        original = BackscatterTag.draw_temp_id

        def forced(tag, id_space, rng, _calls=calls):
            _calls["n"] += 1
            if _calls["n"] <= forced.first_attempt_draws:
                rng.integers(0, id_space)  # keep the stream consumption honest
                tag.temp_id = 1
                return 1
            return original(tag, id_space, rng)

        monkeypatch.setattr(BackscatterTag, "draw_temp_id", forced)
        return forced

    def test_forced_collision_restarts_then_succeeds(self, monkeypatch):
        population, front_end, seeds = _location(n_tags=5, seed=21)
        forced = self._force_first_attempt_collision(monkeypatch)
        forced.first_attempt_draws = len(population)
        result = identify(
            population.tags, front_end, seeds.stream("ident"), BuzzConfig()
        )
        assert result.attempts == 2  # one restart, then clean ids
        assert not result.duplicate_ids
        assert result.exact

    def test_retry_surfaces_in_session_stage_account(self, monkeypatch):
        population, front_end, seeds = _location(n_tags=5, seed=21)
        forced = self._force_first_attempt_collision(monkeypatch)
        forced.first_attempt_draws = len(population)
        result = get_scheme("buzz-e2e").run(
            population, front_end, seeds.stream("ident"), config=BuzzConfig()
        )
        assert result.retries == 1
        assert result.message_loss == 0


class TestOracleVsEstimatedParity:
    def test_estimated_channels_decode_like_oracle_at_high_snr(self):
        """At healthy SNR the CS channel estimates are good enough that the
        data phase decodes everything, exactly like the oracle run."""
        population, front_end, seeds = _location(n_tags=8, seed=50)
        ident = identify(
            population.tags, front_end, seeds.stream("ident"), BuzzConfig()
        )
        assert ident.exact, "pick a seed where identification is exact"
        k_hat = len(ident.estimates)
        estimated = run_mobile_data_segment(
            population.tags,
            front_end,
            seeds.stream("data", "estimated"),
            estimates=ident.estimates,
            trajectory=None,
            participants=np.ones(len(population), dtype=bool),
            start_s=0.0,
            k_hat=k_hat,
            max_slots=BuzzConfig().max_data_slots(k_hat),
        )
        oracle = run_rateless_uplink(
            population.tags, front_end, seeds.stream("data", "oracle")
        )
        assert oracle.decoded_mask.all() and oracle.bit_errors == 0
        assert estimated.decoded_mask.all() and estimated.bit_errors == 0


class TestCampaignIntegration:
    def _spec(self, **overrides):
        defaults = dict(
            scenario=default_uplink_scenario(4),
            root_seed=2024,
            n_locations=2,
            n_traces=1,
            schemes=("buzz", "buzz-e2e"),
        )
        defaults.update(overrides)
        return CampaignSpec(**defaults)

    def test_serial_parallel_bit_identical_with_e2e(self):
        """Acceptance: run_campaign over ("buzz", "buzz-e2e") is serial ≡
        parallel bit-identical per root seed."""
        spec = self._spec()
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=4)
        assert [_record(r) for r in serial.runs] == [_record(r) for r in parallel.runs]
        e2e_runs = serial.by_scheme("buzz-e2e")
        assert len(e2e_runs) == 2
        for run in e2e_runs:
            assert run.duration_s == run.identification_s + run.data_s

    def test_e2e_cells_cache_hit_on_rerun(self, tmp_path, monkeypatch):
        """Acceptance: buzz-e2e results load from the cell cache instead of
        re-executing on a repeat run."""
        spec = self._spec(schemes=("buzz-e2e",))
        first = run_campaign(spec, cache_dir=str(tmp_path))

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: pipeline executed on re-run")

        monkeypatch.setattr(SessionPipeline, "run", boom)
        second = run_campaign(spec, cache_dir=str(tmp_path))
        assert [_record(r) for r in second.runs] == [_record(r) for r in first.runs]
        assert second.runs[0].identification_s is not None  # stage fields survive

    def test_all_e2e_variants_run_in_one_grid(self):
        spec = self._spec(schemes=E2E, n_locations=1)
        result = run_campaign(spec)
        assert [r.scheme for r in result.runs] == list(E2E)
        for run in result.runs:
            assert run.duration_s == run.identification_s + run.data_s


class TestStageFieldPersistence:
    def test_scheme_run_round_trip_with_stage_fields(self):
        spec = CampaignSpec(
            scenario=default_uplink_scenario(4),
            root_seed=7,
            n_locations=1,
            n_traces=1,
            schemes=("buzz-e2e",),
        )
        result = run_campaign(spec)
        restored = CampaignResult.from_json(result.to_json())
        assert [_record(r) for r in restored.runs] == [_record(r) for r in result.runs]

    def test_pr2_era_json_loads_with_stage_fields_none(self):
        """Satellite: a PR-2-era record (no stage fields) must round-trip
        with the stage fields defaulting to None."""
        path = FIXTURES / "pr2_campaign_result.json"
        result = CampaignResult.from_json(path.read_text())
        assert result.scenario_name == "uplink-k4"
        assert len(result.runs) == 3
        for run in result.runs:
            assert run.identification_s is None
            assert run.data_s is None
            assert run.retries is None
        # The legacy payload fields survive untouched…
        assert result.runs[0].duration_s == 0.003189814814814815
        assert [int(t) for t in result.runs[0].transmissions] == [3, 4, 5, 4]
        assert sum(r.message_loss for r in result.by_scheme("cdma")) == 1
        # …and a re-serialisation round-trips the Nones explicitly.
        again = CampaignResult.from_json(result.to_json())
        assert [_record(r) for r in again.runs] == [_record(r) for r in result.runs]
        payload = json.loads(result.to_json())
        assert payload["runs"][0]["identification_s"] is None

    def test_legacy_shaped_cache_record_is_still_served(self, tmp_path):
        """A cached cell whose record predates the stage fields (old layout)
        must hit, not error, under the new record shape."""
        from repro.engine.cache import _CACHE_FORMAT, CampaignCache, cell_cache_key

        spec = CampaignSpec(
            scenario=default_uplink_scenario(4),
            root_seed=3,
            n_locations=1,
            n_traces=1,
            schemes=("tdma",),
        )
        cell = next(iter(spec.cells()))
        fresh = run_campaign(spec).runs[0]
        legacy = fresh.to_dict()
        for key in ("identification_s", "data_s", "retries"):
            legacy.pop(key)
        cache = CampaignCache(tmp_path)
        key = cell_cache_key(spec, cell)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format": _CACHE_FORMAT, "run": legacy}))
        loaded = cache.load_key(key)
        assert loaded is not None
        assert loaded.identification_s is None
        assert _record(loaded)[:4] == _record(fresh)[:4]

    def test_pre_mobility_format_cells_are_misses(self, tmp_path):
        """Format-1 cells (pre data_transmissions/reidentifications) must
        miss rather than be served: the fig13 session pricing reads the new
        fields, and serving old cells would silently mix two pricing models
        in one figure."""
        from repro.engine.cache import CampaignCache, cell_cache_key

        spec = CampaignSpec(
            scenario=default_uplink_scenario(4),
            root_seed=3,
            n_locations=1,
            n_traces=1,
            schemes=("tdma",),
        )
        cell = next(iter(spec.cells()))
        fresh = run_campaign(spec).runs[0]
        cache = CampaignCache(tmp_path)
        key = cell_cache_key(spec, cell)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format": 1, "run": fresh.to_dict()}))
        assert cache.load_key(key) is None
