"""Golden pin for the rateless-family schemes the older goldens leave out.

The pr2/pr3 fixtures pin ``buzz``, ``buzz-e2e``, ``tdma`` and ``cdma``.
This one pins ``silenced``, ``silenced-e2e``, ``buzz-adaptive`` and
``silenced-adaptive`` on a static scenario and on a mobile one, so every
branch of the data-phase loop (silencing, the stall monitor,
re-identification, the mobile receive path) is held to its recorded
``CampaignResult.to_json()`` byte for byte.

Regenerate (only for a deliberate, documented output change) with
``PYTHONPATH=src python tests/engine/test_data_phase_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.engine.campaign import CampaignResult, CampaignSpec, run_campaign
from repro.network.scenarios import scenario_by_name

FIXTURE = Path(__file__).parent / "data" / "pr14_data_phase_result.json"

SCHEMES = ("silenced", "silenced-e2e", "buzz-adaptive", "silenced-adaptive")

#: Fixture key → (scenario, K, root seed). The churn cells include a
#: ``silenced-adaptive`` session that ACKs and then re-identifies.
SPECS = {
    "default": ("default", 6, 14),
    "churn": ("churn", 6, 0),
}


def _spec(key: str) -> CampaignSpec:
    name, k, root = SPECS[key]
    return CampaignSpec(
        scenario=scenario_by_name(name, k),
        root_seed=root,
        n_locations=2,
        n_traces=1,
        schemes=SCHEMES,
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", sorted(SPECS))
def test_campaign_json_matches_golden(golden, key):
    expected = CampaignResult.from_dict(golden[key]).to_json()
    assert run_campaign(_spec(key)).to_json() == expected


def test_mobile_golden_covers_reidentification_and_acks(golden):
    """The mobile cells exercise the branches the pin is there for."""
    runs = CampaignResult.from_dict(golden["churn"]).runs
    assert any(r.reidentifications for r in runs)
    # A silenced session that verified anything paid for at least one ACK.
    silenced = [r for r in runs if r.scheme == "silenced-adaptive"]
    assert any(r.message_loss < r.n_tags for r in silenced)
    assert any(r.reidentifications for r in silenced)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({key: run_campaign(_spec(key)).to_dict() for key in SPECS}, indent=1)
        + "\n"
    )
