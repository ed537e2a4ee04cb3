"""Golden pin for every decision the packed decode kernel takes.

Each call of :meth:`repro.core.bp_decoder.PackedBitFlipDecoder.
decode_best_of_state` is reduced to one sha256 of its discrete outcome:
the state's bits after the call, the per-position ``flips`` and the
``converged`` flags. The fixture keeps the sequence of those digests for
three seeded runs:

* two oracle ``buzz`` cells on the ``default`` scenario at K = 32, the
  paper's scale, where the pair-flip escape and the restart trials run
  on nearly every call;
* one ``buzz-e2e`` session on ``dense`` at K = 12, which decodes over an
  identified (not genie) view.

A kernel change that moves any flip decision, tie-break or restart draw
moves a digest here, even when the run's final record happens not to
change. Residuals and correlations are floats whose last bits may move
under an exact refactor's reordering of *independent* operations, so
they are not hashed; the downstream goldens pin what they feed.

Regenerate (only for a deliberate, documented output change) with
``PYTHONPATH=src python tests/core/test_kernel_calls_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.bp_decoder import resolve_kernel
from repro.engine.campaign import CampaignSpec, run_campaign
from repro.network.scenarios import scenario_by_name

FIXTURE = Path(__file__).parent / "data" / "kernel_calls_golden.json"

#: (name, scenario, K, scheme, root seed)
CASES = (
    ("buzz/default/k32/seed11", "default", 32, "buzz", 11),
    ("buzz/default/k32/seed4242", "default", 32, "buzz", 4242),
    ("buzz-e2e/dense/k12/seed7", "dense", 12, "buzz-e2e", 7),
)


def call_digest(outcome) -> str:
    """sha256 of one kernel call's discrete outcome."""
    digest = hashlib.sha256()
    bits = np.ascontiguousarray(outcome.bits, dtype=np.uint8)
    digest.update(repr(bits.shape).encode())
    digest.update(bits.tobytes())
    digest.update(np.ascontiguousarray(outcome.flips, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(outcome.converged, dtype=bool).tobytes())
    return digest.hexdigest()


def record_calls(scenario: str, k: int, scheme: str, root: int) -> list:
    """Run one seeded cell serially and return the digest of every kernel
    call; the kernel's method is wrapped for the run only."""
    kernel = resolve_kernel()
    original = kernel.decode_best_of_state
    digests = []

    def recorded(self, restarts, rng):
        outcome = original(self, restarts, rng)
        digests.append(call_digest(outcome))
        return outcome

    kernel.decode_best_of_state = recorded
    try:
        spec = CampaignSpec(
            scenario=scenario_by_name(scenario, k),
            root_seed=root,
            n_locations=1,
            n_traces=1,
            schemes=(scheme,),
        )
        run_campaign(spec, jobs=1)
    finally:
        kernel.decode_best_of_state = original
    return digests


def test_kernel_call_outcomes_match_golden():
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(name for name, *_ in CASES)
    for name, scenario, k, scheme, root in CASES:
        got = record_calls(scenario, k, scheme, root)
        want = golden[name]
        assert len(want) > 10, name
        assert len(got) == len(want), (name, len(got), len(want))
        for index, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"{name}: kernel call {index} moved"


if __name__ == "__main__":
    fixture = {}
    for name, scenario, k, scheme, root in CASES:
        fixture[name] = record_calls(scenario, k, scheme, root)
        print(f"{name}: {len(fixture[name])} kernel calls")
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
