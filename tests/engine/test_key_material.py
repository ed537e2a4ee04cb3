"""Cell-key material equals what ``dataclasses.asdict`` gave.

The scenario and config tokens are serialised by
:func:`repro.utils.plain.plain_data`, not ``asdict``; cache keys stay
byte-identical only while the two give the same JSON. The reference
scenario tokens below are the ``asdict`` forms with the same ``None``
rules, so every scenario added to ``SCENARIO_NAMES`` is checked here
too; a config token is the plain ``asdict`` of every field. A key splices the once-per-spec encodings of those
tokens into each cell's JSON; the last tests check it against one
``json.dumps`` of the whole material.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.config import BuzzConfig
from repro.engine.cache import (
    _CACHE_FORMAT,
    _config_token,
    _scenario_token,
    cell_cache_key,
)
from repro.engine.campaign import CampaignSpec
from repro.network.scenarios import (
    CHALLENGING_SNR_BANDS,
    SCENARIO_NAMES,
    challenging_scenario,
    scenario_by_name,
)
from repro.utils.plain import plain_data


def _asdict_scenario_token(scenario) -> dict:
    token = dataclasses.asdict(scenario)
    if token.get("snr_band_db") is not None:
        token["snr_band_db"] = list(token["snr_band_db"])
    for optional in ("mobility", "readers"):
        if token.get(optional) is None:
            token.pop(optional, None)
    return token


def _json(token) -> str:
    return json.dumps(token, sort_keys=True)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("k", [4, 12])
def test_named_scenario_token_matches_asdict(name, k):
    scenario = scenario_by_name(name, k)
    assert _json(_scenario_token(scenario)) == _json(_asdict_scenario_token(scenario))


@pytest.mark.parametrize("band", CHALLENGING_SNR_BANDS)
def test_band_scenario_token_matches_asdict(band):
    scenario = challenging_scenario(band)
    token = _scenario_token(scenario)
    assert isinstance(token["snr_band_db"], list)
    assert _json(token) == _json(_asdict_scenario_token(scenario))


@pytest.mark.parametrize(
    "config",
    [
        BuzzConfig(),
        BuzzConfig(bp_restarts=0),
        BuzzConfig(slots_per_step=8, density_colliders=3.0),
        BuzzConfig(slots_per_step=2, density_colliders=7.5, bp_restarts=1),
    ],
)
def test_config_token_matches_asdict(config):
    assert _json(_config_token(config)) == _json(dataclasses.asdict(config))


def test_plain_data_nesting():
    @dataclasses.dataclass
    class Inner:
        values: tuple
        label: str = "x"

    @dataclasses.dataclass
    class Outer:
        inner: Inner
        items: list
        missing: object = None

    obj = Outer(Inner((1, 2.5)), [Inner(()), (3, "a")])
    assert plain_data(obj) == {
        "inner": {"values": [1, 2.5], "label": "x"},
        "items": [{"values": [], "label": "x"}, [3, "a"]],
        "missing": None,
    }
    assert _json(plain_data(obj)) == _json(dataclasses.asdict(obj))


def _reference_key(spec, cell) -> str:
    material = {
        "format": _CACHE_FORMAT,
        "root_seed": spec.root_seed,
        "location_keys": ["location", cell.location],
        "run_keys": ["trace", cell.location, cell.trace, cell.scheme],
        "scheme": cell.scheme,
        "scenario": _scenario_token(spec.scenario),
        "config": _config_token(spec.config),
        "max_slots": spec.max_slots,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_spliced_key_equals_one_dump_of_the_material(name):
    spec = CampaignSpec(
        scenario=scenario_by_name(name, 6),
        root_seed=2**31 + 5,
        n_locations=3,
        n_traces=2,
        schemes=("buzz", "gen2-tdma-e2e", "multi-reader"),
    )
    for cell in spec.cells():
        assert cell_cache_key(spec, cell) == _reference_key(spec, cell)


@pytest.mark.parametrize(
    "config, max_slots",
    [(BuzzConfig(density_colliders=3.0), None), (BuzzConfig(bp_restarts=0), 9)],
)
def test_spliced_key_covers_config_and_slot_bound(config, max_slots):
    spec = CampaignSpec(
        scenario=challenging_scenario(CHALLENGING_SNR_BANDS[0]),
        root_seed=0,
        n_locations=2,
        n_traces=1,
        config=config,
        max_slots=max_slots,
    )
    for cell in spec.cells():
        assert cell_cache_key(spec, cell) == _reference_key(spec, cell)
