"""Golden pin for :class:`repro.core.buzz.BuzzSystem`.

``BuzzSystem.run`` (identification, then the data phase over the
recovered view) and ``BuzzSystem.run_data_phase`` (the §4b periodic mode
over the oracle view, static ids ``temp_id = i``) are held to their
recorded outcomes on the ``default`` and ``challenging`` scenarios,
K ∈ {1, 8}, population seeds 0–3, run generator ``default_rng(100 +
seed)``. Per call the fixture keeps the slot count, the exact airtime,
the decoded mask, per-tag transmissions, bit errors and a digest of the
decoded messages.

Regenerate (only for a deliberate, documented output change) with
``PYTHONPATH=src python tests/core/test_buzz_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.buzz import BuzzSystem
from repro.network.scenarios import scenario_by_name
from repro.nodes.reader import ReaderFrontEnd

FIXTURE = Path(__file__).parent / "data" / "buzz_system_golden.json"

SCENARIOS = ("default", "challenging")
KS = (1, 8)
SEEDS = range(4)


def _draw(name: str, k: int, seed: int):
    population = scenario_by_name(name, k).draw_population(np.random.default_rng(seed))
    system = BuzzSystem(front_end=ReaderFrontEnd(noise_std=population.noise_std))
    return population, system


def _record(data, total_duration_s: float) -> dict:
    return {
        "slots_used": int(data.slots_used),
        "duration_s": repr(data.duration_s),
        "total_duration_s": repr(total_duration_s),
        "decoded_mask": [bool(b) for b in data.decoded_mask],
        "transmissions": [int(t) for t in data.transmissions],
        "bit_errors": int(data.bit_errors),
        "messages_sha256": hashlib.sha256(
            np.ascontiguousarray(data.messages, dtype=np.uint8).tobytes()
        ).hexdigest(),
    }


def _run(name: str, k: int, seed: int) -> dict:
    population, system = _draw(name, k, seed)
    result = system.run(population.tags, np.random.default_rng(100 + seed))
    return _record(result.data, result.total_duration_s)


def _run_data_phase(name: str, k: int, seed: int) -> dict:
    population, system = _draw(name, k, seed)
    for i, tag in enumerate(population.tags):
        tag.temp_id = i
    data = system.run_data_phase(population.tags, np.random.default_rng(100 + seed))
    return _record(data, data.duration_s)


CALLS = {"run": _run, "run_data_phase": _run_data_phase}
KEYS = [
    (call, name, k, seed)
    for call in CALLS
    for name in SCENARIOS
    for k in KS
    for seed in SEEDS
]


def _key(call: str, name: str, k: int, seed: int) -> str:
    return f"{call}/{name}/k{k}/seed{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("call,name,k,seed", KEYS, ids=[_key(*key) for key in KEYS])
def test_matches_golden(golden, call, name, k, seed):
    assert CALLS[call](name, k, seed) == golden[_key(call, name, k, seed)]


def test_golden_covers_a_recovered_nobody_run(golden):
    """At least one pinned ``run`` recovers nobody, so the trigger-only
    data phase (no slots, every message lost) is held too."""
    empty = [
        record
        for key, record in golden.items()
        if key.startswith("run/") and record["slots_used"] == 0
        and not any(record["decoded_mask"])
    ]
    assert empty


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({_key(*key): CALLS[key[0]](*key[1:]) for key in KEYS}, indent=1)
        + "\n"
    )
