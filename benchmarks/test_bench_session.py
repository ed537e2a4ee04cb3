"""Benchmark gate for the incremental decoder state (session level).

The rateless loop's incremental path keeps one persistent
:class:`~repro.core.decoder_state.DecoderState` per session — rank-(new
rows) structure updates on every slot, frozen-column peeling after every
verify pass — instead of rebuilding the (L, K) problem from scratch on
each decode call, as the
:class:`~repro.core.reference.RebuildRatelessDecoder` reference does (it is
patched in as the session loop's decoder class for the rebuild runs). Two
properties are gated here:

* **Identity.** A seeded session decodes byte-identically both ways:
  decoded mask, messages, slots used, and the whole ``DecodeProgress``
  trace.
* **Speed.** The incremental path wins, live at a CI-sized K and ≥ 3× at
  K = 500 in the committed ``BENCH_session.json`` artifact (regenerate
  with ``benchmarks/record_session_bench.py``).

The workload is a fixed-length ``run_rateless_uplink`` session (2·K
slots, SNR-band channels) — deterministic wall-clock shape at every K,
with most tags decoding (and being peeled) along the way. The gated
series runs with ``bp_restarts=0``: the restart protocol is identical
shared work both ways (re-running flip rounds from perturbed starts),
orthogonal to the rebuild-vs-incremental setup cost this gate isolates.
The artifact also records the default ``bp_restarts=4`` config at the
paper's scale, which is what a user waits on.
"""

import json
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core.config import BuzzConfig
from repro.core.rateless import RatelessDecoder, run_rateless_uplink
from repro.core.reference import RebuildRatelessDecoder
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import channels_for_snr_band

_ARTIFACT = Path(__file__).parent.parent / "BENCH_session.json"

#: Shared workload parameters — record_session_bench.py imports these so
#: the committed artifact and the live gate measure the same thing.
SNR_BAND_DB = (12.0, 20.0)
NOISE_STD = 0.1
SLOTS_PER_K = 2
SEED = 7
BP_RESTARTS = 0


def session_workload(k, seed=SEED):
    """Population + front end for one benchmark session at size K."""
    rng = np.random.default_rng(seed)
    h = channels_for_snr_band(k, SNR_BAND_DB[0], SNR_BAND_DB[1], rng,
                              noise_std=NOISE_STD)
    pop = make_population(k, rng, channels=h)
    id_rng = np.random.default_rng(seed + 1000)
    for tag in pop.tags:
        tag.draw_temp_id(10 * k * k, id_rng)
    return pop, ReaderFrontEnd(noise_std=NOISE_STD)


def run_session(pop, front_end, k, rebuild=False, seed=SEED, bp_restarts=BP_RESTARTS):
    """One timed session; returns (result, wall_seconds).

    ``rebuild`` runs it on the rebuild reference instead of the
    persistent decoder state.
    """
    decoder_cls = RebuildRatelessDecoder if rebuild else RatelessDecoder
    with mock.patch("repro.core.rateless.RatelessDecoder", decoder_cls):
        start = time.perf_counter()
        result = run_rateless_uplink(
            pop.tags, front_end, np.random.default_rng(seed),
            config=BuzzConfig(bp_restarts=bp_restarts),
            max_slots=SLOTS_PER_K * k,
        )
        elapsed = time.perf_counter() - start
    return result, elapsed


def identical(a, b):
    return (
        np.array_equal(a.decoded_mask, b.decoded_mask)
        and np.array_equal(a.messages, b.messages)
        and a.slots_used == b.slots_used
        and a.progress == b.progress
    )


def test_bench_session_incremental_identical_and_not_slower(benchmark):
    """Live gate: at a CI-sized K the incremental session is byte-identical
    to the rebuild session and at least as fast (1.15× slack for load)."""
    k = 120
    pop, fe = session_workload(k)
    inc, t_inc = run_session(pop, fe, k)
    reb, t_reb = run_session(pop, fe, k, rebuild=True)

    assert identical(inc, reb), "incremental session diverged from rebuild"
    assert inc.n_decoded > 0.8 * k  # the workload must actually decode
    assert t_inc <= t_reb * 1.15, (
        f"incremental {t_inc:.2f}s slower than rebuild {t_reb:.2f}s"
    )

    benchmark.extra_info["incremental_seconds"] = t_inc
    benchmark.extra_info["rebuild_seconds"] = t_reb
    benchmark(lambda: run_session(pop, fe, k))


def test_session_artifact_records_3x_at_k500():
    """The committed BENCH_session.json must carry the acceptance numbers:
    the ``bp_restarts=0`` K = 500 point present, every point
    byte-identical, and ≥ 3× incremental speedup at K = 500.

    ``v3`` entries carry their own ``bp_restarts``; a ``v1`` recording
    has one workload-wide value."""
    assert _ARTIFACT.exists(), "run benchmarks/record_session_bench.py first"
    payload = json.loads(_ARTIFACT.read_text())
    assert payload["schema"] in ("bench-session/v1", "bench-session/v3")
    series = payload["series"]
    assert all(entry["identical"] for entry in series)
    restarts = payload["workload"].get("bp_restarts")
    k500 = [
        entry for entry in series
        if entry["k"] == 500 and entry.get("bp_restarts", restarts) == 0
    ]
    assert k500, "artifact is missing the K=500 acceptance point"
    entry = k500[0]
    speedup = entry["rebuild_seconds"] / entry["incremental_seconds"]
    assert speedup >= 3.0, f"K=500 speedup {speedup:.2f}x below the 3x gate"
    assert entry["speedup"] >= 3.0
