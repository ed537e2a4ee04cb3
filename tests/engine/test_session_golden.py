"""Golden pin for the two session classes and the Fig. 14 driver.

``buzz-e2e`` (Buzz identification → rateless data phase on the
recovered view) and ``gen2-tdma-e2e`` (FSA inventory → TDMA transfer)
are held to their recorded :meth:`SchemeRun.to_dict` records on a static
field (``default``), a mobile one (``mobile-dense``) and a cell whose
identification recovers nobody (``challenging`` K = 1, root 7). Every
field of ``fig14_identification.run(tag_counts=(4, 8), n_locations=3)``
is pinned too: Buzz, FSA and FSA seeded with K̂ share one generator per
location, so any change to their draw order moves these numbers.

Regenerate (only for a deliberate, documented output change) with
``PYTHONPATH=src python tests/engine/test_session_golden.py``.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.engine.campaign import CampaignSpec, run_campaign
from repro.experiments import fig14_identification
from repro.network.scenarios import scenario_by_name

FIXTURE = Path(__file__).parent / "data" / "session_golden.json"

SCHEMES = ("buzz-e2e", "gen2-tdma-e2e")

#: Fixture key → (scenario, K, root seed).
SPECS = {
    "default": ("default", 6, 3),
    "mobile-dense": ("mobile-dense", 6, 5),
    "challenging-k1": ("challenging", 1, 7),
}


def _runs(key: str) -> list:
    name, k, root = SPECS[key]
    spec = CampaignSpec(
        scenario=scenario_by_name(name, k),
        root_seed=root,
        n_locations=2,
        n_traces=1,
        schemes=SCHEMES,
    )
    return [run.to_dict() for run in run_campaign(spec).runs]


def _fig14() -> dict:
    result = asdict(fig14_identification.run(tag_counts=(4, 8), n_locations=3))
    # JSON object keys are strings; the per-K dicts are keyed by K.
    return {
        field: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
        for field, value in result.items()
    }


def _record() -> dict:
    return {"campaigns": {key: _runs(key) for key in SPECS}, "fig14": _fig14()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", sorted(SPECS))
def test_session_runs_match_golden(golden, key):
    assert _runs(key) == golden["campaigns"][key]


def test_fig14_matches_golden(golden):
    assert _fig14() == golden["fig14"]


def test_golden_covers_a_recovered_nobody_session(golden):
    """The ``challenging`` K = 1 cells include a ``buzz-e2e`` session that
    recovers nobody, so the trigger-only data phase is held too."""
    runs = golden["campaigns"]["challenging-k1"]
    assert any(
        r["scheme"] == "buzz-e2e" and r["slots_used"] == 0 and r["message_loss"] == 1
        for r in runs
    )


def test_golden_covers_a_mobile_session(golden):
    """The mobile cells ran the mobile loop (it reports re-identifications)."""
    runs = golden["campaigns"]["mobile-dense"]
    assert all(r["reidentifications"] is not None for r in runs if r["scheme"] == "buzz-e2e")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
