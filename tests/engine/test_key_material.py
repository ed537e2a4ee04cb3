"""Cell-key material equals what ``dataclasses.asdict`` gave.

The scenario and config tokens are serialised by
:func:`repro.utils.plain.plain_data`, not ``asdict``; cache keys stay
byte-identical only while the two give the same JSON. The reference
tokens below are the ``asdict`` forms with the same ``None`` and
default-dropping rules, so every scenario added to ``SCENARIO_NAMES``
is checked here too.
"""

import dataclasses
import json

import pytest

from repro.core.config import BuzzConfig
from repro.engine.cache import (
    _DEFAULT_ONLY_CONFIG_FIELDS,
    _config_token,
    _scenario_token,
)
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


def _asdict_config_token(config) -> dict:
    token = dataclasses.asdict(config)
    for field, default in _DEFAULT_ONLY_CONFIG_FIELDS.items():
        if token.get(field) == default:
            del token[field]
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
        BuzzConfig(bp_verify_rounds=2),
        BuzzConfig(bp_restarts=0, cs_method="omp", c=12),
        BuzzConfig(empty_threshold=0.5, density_min=0.1, max_data_slots_factor=40.0),
    ],
)
def test_config_token_matches_asdict(config):
    assert _json(_config_token(config)) == _json(_asdict_config_token(config))


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
