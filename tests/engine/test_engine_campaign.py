"""Tests for repro.engine.campaign — declarative grid + executors.

The golden records below were captured from the pre-engine serial loop
(the campaign loop that predates the scheme registry) at root_seed
2024/77: the engine must reproduce them bit for bit, serially and in
parallel.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.engine.backends import ProcessPoolBackend
from repro.engine.cache import CampaignCache, cell_cache_key
from repro.engine.campaign import (
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    run_campaign,
    run_cell,
)
from repro.engine.schemes import TdmaScheme, register_scheme
from repro.engine import schemes as schemes_module
from repro.network.metrics import uplink_metrics_from_runs
from repro.network.scenarios import default_uplink_scenario, error_prone_scenario

#: (scheme, location, trace, duration_s, message_loss, slots_used,
#:  bits_per_symbol, bit_errors, transmissions) for the K=4 default scenario,
#: root_seed=2024, 2 locations × 2 traces — pre-refactor serial output.
GOLDEN_DEFAULT_K4 = [
    ("buzz", 0, 0, 0.003189814814814815, 0, 5, 0.8, 0, [3, 4, 5, 4]),
    ("tdma", 0, 0, 0.002727314814814815, 0, 4, 1.0, 0, [1, 1, 1, 1]),
    ("cdma", 0, 0, 0.002727314814814815, 0, 4, 1.0, 0, [1, 1, 1, 1]),
    ("buzz", 0, 1, 0.002727314814814815, 0, 4, 1.0, 0, [4, 2, 4, 2]),
    ("tdma", 0, 1, 0.002727314814814815, 0, 4, 1.0, 0, [1, 1, 1, 1]),
    ("cdma", 0, 1, 0.002727314814814815, 0, 4, 1.0, 0, [1, 1, 1, 1]),
    ("buzz", 1, 0, 0.002264814814814815, 0, 3, 1.3333333333333333, 0, [1, 3, 3, 1]),
    ("tdma", 1, 0, 0.002727314814814815, 0, 4, 1.0, 0, [1, 1, 1, 1]),
    ("cdma", 1, 0, 0.002727314814814815, 1, 4, 1.0, 7, [1, 1, 1, 1]),
    ("buzz", 1, 1, 0.0013398148148148147, 0, 1, 4.0, 0, [1, 1, 1, 1]),
    ("tdma", 1, 1, 0.002727314814814815, 0, 4, 1.0, 0, [1, 1, 1, 1]),
    ("cdma", 1, 1, 0.002727314814814815, 1, 4, 1.0, 6, [1, 1, 1, 1]),
]


class _EchoTdmaScheme(TdmaScheme):
    """A 'user-defined' scheme for registry/executor tests."""

    name = "echo-tdma"

    def run(self, population, front_end, rng, config, max_slots=None):
        result = super().run(population, front_end, rng, config, max_slots)
        return dataclasses.replace(result, scheme=self.name)


def _spec(**overrides):
    defaults = dict(
        scenario=default_uplink_scenario(4),
        root_seed=2024,
        n_locations=2,
        n_traces=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _record(run):
    return (
        run.scheme,
        run.location,
        run.trace,
        float(run.duration_s),
        int(run.message_loss),
        int(run.slots_used),
        float(run.bits_per_symbol),
        int(run.bit_errors),
        [int(x) for x in run.transmissions],
    )


class TestCampaignSpec:
    def test_cells_enumerate_in_grid_order(self):
        spec = _spec(schemes=("buzz", "tdma"))
        cells = list(spec.cells())
        assert len(cells) == spec.n_cells == 2 * 2 * 2
        assert cells[0] == CampaignCell(0, 0, "buzz")
        assert cells[1] == CampaignCell(0, 0, "tdma")
        assert cells[2] == CampaignCell(0, 1, "buzz")

    def test_unknown_scheme_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            _spec(schemes=("aloha",))

    def test_empty_schemes_rejected(self):
        with pytest.raises(ValueError):
            _spec(schemes=())

    @pytest.mark.parametrize(
        "max_slots, error",
        [(0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError)],
    )
    def test_bad_max_slots_rejected(self, max_slots, error):
        """A slot bound that is not a positive int is refused when the spec
        is built, not by one scheme in the middle of a campaign."""
        with pytest.raises(error, match="max_slots"):
            _spec(max_slots=max_slots)

    def test_config_sweep_is_a_list_of_specs(self):
        """A config sweep is one spec per setting: each runs the same grid
        under its own config, and the restart setting reaches the decoder."""
        specs = [
            _spec(schemes=("buzz",), config=config)
            for config in (BuzzConfig(), BuzzConfig(bp_restarts=0))
        ]
        assert [spec.n_cells for spec in specs] == [2 * 2, 2 * 2]
        assert [list(spec.cells()) for spec in specs] == [list(specs[0].cells())] * 2
        cell = CampaignCell(0, 0, "buzz")
        assert cell_cache_key(specs[0], cell) != cell_cache_key(specs[1], cell)
        assert [_record(run_cell(specs[0], c)) for c in specs[0].cells()] == [
            r for r in GOLDEN_DEFAULT_K4 if r[0] == "buzz"
        ]


class TestGoldenReproduction:
    """Registry schemes must reproduce the pre-refactor results exactly."""

    def test_serial_matches_pre_refactor_golden(self):
        result = run_campaign(_spec())
        assert [_record(r) for r in result.runs] == GOLDEN_DEFAULT_K4

    def test_single_cell_matches_golden(self):
        run = run_cell(_spec(), CampaignCell(1, 0, "buzz"))
        assert _record(run) == GOLDEN_DEFAULT_K4[6]

    def test_cells_are_order_independent(self):
        """A cell computes the same bits no matter when it runs — the
        property the process pool relies on."""
        spec = _spec()
        forward = [run_cell(spec, c) for c in spec.cells()]
        backward = [run_cell(spec, c) for c in reversed(list(spec.cells()))]
        assert [_record(r) for r in reversed(backward)] == [_record(r) for r in forward]


class TestParallelExecution:
    def test_parallel_bit_identical_to_serial(self):
        spec = _spec()
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=4)
        assert [_record(r) for r in serial.runs] == [_record(r) for r in parallel.runs]
        assert [_record(r) for r in parallel.runs] == GOLDEN_DEFAULT_K4

    def test_spawn_context_bit_identical(self):
        """Spawn-safety: fresh interpreters re-derive identical cells."""
        spec = _spec(n_locations=1, n_traces=1)
        serial = run_campaign(spec, jobs=1)
        spawned = run_campaign(
            spec, backend=ProcessPoolBackend(jobs=2, mp_context="spawn")
        )
        assert [_record(r) for r in serial.runs] == [_record(r) for r in spawned.runs]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(_spec(), jobs=0)

    def test_user_registered_scheme_runs_in_workers(self):
        """Schemes are shipped to workers by value, so a scheme registered
        only in the parent process still runs under jobs > 1."""
        register_scheme(_EchoTdmaScheme())
        try:
            spec = _spec(n_locations=1, n_traces=1, schemes=("echo-tdma",))
            serial = run_campaign(spec, jobs=1)
            parallel = run_campaign(spec, jobs=2)
            assert [r.scheme for r in parallel.runs] == ["echo-tdma"]
            assert _record(serial.runs[0]) == _record(parallel.runs[0])
        finally:
            schemes_module._REGISTRY.pop("echo-tdma", None)


class TestCampaignResult:
    def test_aggregates_and_by_scheme(self):
        result = run_campaign(_spec())
        assert len(result.by_scheme("buzz")) == 4
        per = {
            s: uplink_metrics_from_runs(s, result.by_scheme(s))
            for s in ("buzz", "tdma", "cdma")
        }
        assert per["tdma"].mean_duration_ms > 0
        assert per["cdma"].mean_undecoded * per["cdma"].n_runs == 2
        assert per["cdma"].loss_fraction == 2 / 16
        assert per["buzz"].mean_rate_bits_per_symbol == pytest.approx(
            np.mean([0.8, 1.0, 4 / 3, 4.0])
        )

    def test_unknown_scheme_rejected(self):
        result = run_campaign(_spec())
        with pytest.raises(ValueError):
            result.by_scheme("aloha")

    def test_n_runs_and_schemes_present(self):
        result = run_campaign(_spec())
        assert result.n_runs == len(result.runs) == 12
        assert result.schemes_present() == ("buzz", "tdma", "cdma")

    def test_scheme_index_refreshes_after_append(self):
        """The lazy index must track a growing result (streaming append)."""
        result = run_campaign(_spec())
        assert len(result.by_scheme("buzz")) == 4  # builds the index
        result.runs.append(result.runs[0])
        assert result.n_runs == 13
        assert len(result.by_scheme("buzz")) == 5  # rebuilt on growth

    def test_by_scheme_returns_a_copy(self):
        result = run_campaign(_spec())
        result.by_scheme("buzz").clear()  # mutating the view is harmless
        assert len(result.by_scheme("buzz")) == 4

    def test_aggregates_over_zero_runs_raise(self):
        """A registered scheme absent from the spec must raise, not return
        numpy nan with a RuntimeWarning."""
        result = run_campaign(_spec(schemes=("tdma",)))
        assert result.by_scheme("cdma") == []  # membership query still fine
        with pytest.raises(ValueError, match="no runs to aggregate"):
            uplink_metrics_from_runs("cdma", result.by_scheme("cdma"))

    def test_json_round_trip_is_exact(self):
        result = run_campaign(_spec())
        restored = CampaignResult.from_json(result.to_json())
        assert restored.scenario_name == result.scenario_name
        assert [_record(r) for r in restored.runs] == [_record(r) for r in result.runs]

    def test_save_load_round_trip(self, tmp_path):
        """A result written to a file as indented JSON reads back exactly."""
        result = run_campaign(_spec())
        path = tmp_path / "campaign.json"
        path.write_text(result.to_json(indent=2))
        restored = CampaignResult.from_json(path.read_text())
        assert restored.to_json() == result.to_json()


class _CountingTdmaScheme(TdmaScheme):
    """Counts executions so cache tests can assert zero new cells."""

    name = "counting-tdma"
    calls = 0

    def run(self, population, front_end, rng, config, max_slots=None):
        type(self).calls += 1
        result = super().run(population, front_end, rng, config, max_slots)
        return dataclasses.replace(result, scheme=self.name)


class TestResultCache:
    def test_second_run_executes_zero_cells(self, tmp_path):
        register_scheme(_CountingTdmaScheme())
        try:
            spec = _spec(schemes=("counting-tdma",))
            first = run_campaign(spec, cache_dir=str(tmp_path))
            executed = _CountingTdmaScheme.calls
            assert executed == spec.n_cells
            second = run_campaign(spec, cache_dir=str(tmp_path))
            assert _CountingTdmaScheme.calls == executed  # zero new cells
            assert [_record(r) for r in second.runs] == [_record(r) for r in first.runs]
        finally:
            schemes_module._REGISTRY.pop("counting-tdma", None)
            _CountingTdmaScheme.calls = 0

    def test_cached_equals_uncached(self, tmp_path):
        spec = _spec()
        plain = run_campaign(spec)
        warm = run_campaign(spec, cache_dir=str(tmp_path))
        cached = run_campaign(spec, cache_dir=str(tmp_path))
        assert [_record(r) for r in warm.runs] == [_record(r) for r in plain.runs]
        assert [_record(r) for r in cached.runs] == [_record(r) for r in plain.runs]

    def test_partial_overlap_only_runs_new_cells(self, tmp_path):
        register_scheme(_CountingTdmaScheme())
        try:
            small = _spec(schemes=("counting-tdma",), n_locations=1)
            run_campaign(small, cache_dir=str(tmp_path))
            calls_small = _CountingTdmaScheme.calls
            big = _spec(schemes=("counting-tdma",), n_locations=2)
            run_campaign(big, cache_dir=str(tmp_path))
            # only location 1's cells are new; location 0's come from cache
            assert _CountingTdmaScheme.calls == calls_small + small.n_cells
        finally:
            schemes_module._REGISTRY.pop("counting-tdma", None)
            _CountingTdmaScheme.calls = 0

    def test_key_distinguishes_every_input(self):
        spec = _spec()
        cell = CampaignCell(0, 0, "buzz")
        base = cell_cache_key(spec, cell)
        assert base != cell_cache_key(_spec(root_seed=2025), cell)
        assert base != cell_cache_key(spec, CampaignCell(0, 1, "buzz"))
        assert base != cell_cache_key(spec, CampaignCell(0, 0, "tdma"))
        assert base != cell_cache_key(
            _spec(scenario=error_prone_scenario(4)), cell
        )
        assert base != cell_cache_key(_spec(config=BuzzConfig(bp_restarts=0)), cell)
        assert base != cell_cache_key(_spec(max_slots=9), cell)

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        spec = _spec(schemes=("tdma",), n_locations=1, n_traces=1)
        cache = CampaignCache(tmp_path)
        cell = next(iter(spec.cells()))
        key = cell_cache_key(spec, cell)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.load_key(key) is None
        result = run_campaign(spec, cache_dir=str(tmp_path))  # repairs the entry
        assert cache.load_key(key) is not None
        assert _record(result.runs[0]) == _record(run_campaign(spec).runs[0])

    @pytest.mark.parametrize(
        "damage",
        ["invalid-utf8", "empty", "directory", "other-format", "run-missing-field"],
    )
    def test_damaged_record_is_a_miss_and_repaired(self, tmp_path, damage):
        spec = _spec(schemes=("tdma",), n_locations=1, n_traces=1)
        cache = CampaignCache(tmp_path)
        key = cell_cache_key(spec, next(iter(spec.cells())))
        run_campaign(spec, cache_dir=str(tmp_path))
        path = cache._path(key)
        good = path.read_bytes()
        payload = json.loads(good)
        path.unlink()
        if damage == "invalid-utf8":
            path.write_bytes(b'{"format": 3, "run": "\xff\xfe"}')
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "directory":
            path.mkdir()
        elif damage == "other-format":
            path.write_text(json.dumps(dict(payload, format=payload["format"] + 1)))
        else:
            del payload["run"]["slots_used"]
            path.write_text(json.dumps(payload))
        assert cache.load_key(key) is None
        result = run_campaign(spec, cache_dir=str(tmp_path))
        assert path.read_bytes() == good
        assert _record(result.runs[0]) == _record(run_campaign(spec).runs[0])


class TestCompletePlan:
    """A spec the cache fully answers returns from the plan alone."""

    class _NoExecute(ProcessPoolBackend):
        def execute(self, ctx):
            raise AssertionError("a complete plan has nothing to execute")

    def test_complete_plan_skips_the_backend(self, tmp_path):
        spec = _spec()
        cold = run_campaign(spec, cache_dir=str(tmp_path))
        warm = run_campaign(spec, cache_dir=str(tmp_path), backend=self._NoExecute())
        assert warm.to_json() == cold.to_json()

    def test_cached_on_cell_calls_in_grid_order(self, tmp_path):
        spec = _spec()
        cold = run_campaign(spec, cache_dir=str(tmp_path))
        events = []
        run_campaign(
            spec,
            cache_dir=str(tmp_path),
            on_cell=lambda cell, run, cached: events.append((cell, _record(run), cached)),
        )
        assert events == [
            (cell, _record(run), True) for cell, run in zip(spec.cells(), cold.runs)
        ]

    def test_arguments_still_checked(self, tmp_path):
        spec = _spec()
        run_campaign(spec, cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(spec, jobs=0, cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(spec, cache_dir=str(tmp_path), backend="nope")
        with pytest.raises(ValueError, match="cache"):
            run_campaign(spec, backend="cache-queue")


class TestSilencedInGrid:
    def test_serial_parallel_identical_with_silenced(self):
        """The fourth scheme obeys the engine's determinism contract."""
        spec = _spec(schemes=("buzz", "silenced", "tdma"), n_locations=2, n_traces=1)
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=4)
        assert [r.scheme for r in serial.runs[:3]] == ["buzz", "silenced", "tdma"]
        assert [_record(r) for r in serial.runs] == [_record(r) for r in parallel.runs]

    def test_silenced_cells_are_order_independent(self):
        spec = _spec(schemes=("silenced",), n_locations=1, n_traces=2)
        forward = [run_cell(spec, c) for c in spec.cells()]
        again = [run_cell(spec, c) for c in spec.cells()]
        assert [_record(r) for r in forward] == [_record(r) for r in again]
