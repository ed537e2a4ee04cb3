"""Golden pin for campaign cell cache keys.

A cell's content address (:func:`~repro.engine.cache.cell_cache_key`) is
what an existing cache directory is looked up by, so moving one silently
turns every stored cell into a miss. These keys were recorded for eight
specs that cover the default grid, the session schemes, the key's config
token (a changed field), the slot bound, and the scenario token's
optional parts: ``readers`` (``dense-floor``), ``snr_band_db`` (Fig. 12's
``challenging`` band) and ``mobility`` (``churn``). Each spec is a 2 × 2
grid, so location and trace both enter the pinned keys.

Regenerate (only for a deliberate, documented key change, which also
needs a ``_CACHE_FORMAT`` bump) with
``PYTHONPATH=src python tests/engine/test_cell_key_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import BuzzConfig
from repro.engine.cache import _CACHE_FORMAT, cell_cache_key
from repro.engine.campaign import CampaignSpec
from repro.network.scenarios import scenario_by_name

FIXTURE = Path(__file__).parent / "data" / "cell_key_golden.json"

#: Fixture key → (scenario, K, schemes, config, max_slots).
SPECS = {
    "buzz-default-k32": ("default", 32, ("buzz",), BuzzConfig(), None),
    "buzz-e2e-dense-k12": ("dense", 12, ("buzz-e2e",), BuzzConfig(), None),
    "buzz-adaptive-mobile-dense-k12": (
        "mobile-dense", 12, ("buzz-adaptive",), BuzzConfig(), None,
    ),
    "bp-restarts-0": ("default", 12, ("buzz",), BuzzConfig(bp_restarts=0), None),
    "max-slots-9": ("default", 12, ("buzz", "tdma"), BuzzConfig(), 9),
    "multi-reader-dense-floor-k12": (
        "dense-floor", 12, ("multi-reader",), BuzzConfig(), None,
    ),
    "fig12-band-challenging-k4": (
        "challenging", 4, ("buzz", "tdma", "cdma"), BuzzConfig(), None,
    ),
    "buzz-adaptive-churn-k12": ("churn", 12, ("buzz-adaptive",), BuzzConfig(), None),
}


def _spec(key: str) -> CampaignSpec:
    name, k, schemes, config, max_slots = SPECS[key]
    return CampaignSpec(
        scenario=scenario_by_name(name, k),
        root_seed=7,
        n_locations=2,
        n_traces=2,
        schemes=schemes,
        config=config,
        max_slots=max_slots,
    )


def _keys(key: str) -> list:
    spec = _spec(key)
    return [cell_cache_key(spec, cell) for cell in spec.cells()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_cache_format_is_pinned(golden):
    assert _CACHE_FORMAT == golden["format"]


@pytest.mark.parametrize("key", sorted(SPECS))
def test_cell_keys_match_golden(golden, key):
    assert _keys(key) == golden["keys"][key]


def test_golden_keys_are_distinct(golden):
    keys = [k for spec_keys in golden["keys"].values() for k in spec_keys]
    assert len(keys) == len(set(keys))


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {"format": _CACHE_FORMAT, "keys": {key: _keys(key) for key in SPECS}},
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
