"""Span tracer for the benchmark's traced run.

The tracer wraps the library's layer-boundary functions from outside the
library: every binding a caller actually uses is replaced by a wrapper
that records one span ``(name, start, end, parent, cell)`` per call,
then restored when the tracer exits. Nothing under ``src/`` changes.

Bindings matter because most modules do ``from x import f``: patching
``f`` only in ``x`` would miss every caller that holds its own name for
it. So ``slot_decision_matrix`` is patched in each consumer module,
methods are patched on their class, and ``collision_constellation`` —
imported inside the function that uses it — is patched at
``repro.phy.constellation``.

A span's *self time* is its duration minus the time its child spans
cover. Each span name belongs to one layer; a layer's share is its
spans' self time over the traced wall time, and whatever no span covers
is reported as ``other``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: Layers, in report order. ``core.identification`` also holds the
#: compressive-sensing solvers and the K estimator it drives.
LAYERS = (
    "engine",
    "core.rateless",
    "core.bp_decoder",
    "core.decoder_state",
    "core.identification",
    "core.mobile",
    "sim",
    "phy",
    "coding",
    "baselines",
)

_PRNG_CONSUMERS = (
    "repro.coding.prng",
    "repro.core.rateless",
    "repro.core.mobile",
    "repro.core.silencing",
    "repro.core.identification",
    "repro.core.kestimate",
    "repro.sim.multireader",
)

#: ``(span name, layer, bindings)``; a binding is ``(module, attribute)``
#: where the attribute is ``func`` or ``Class.method``. ``KERNEL`` stands
#: for the decode kernel class the rateless decoder resolves at run time.
SPANS = (
    ("engine.campaign", "engine",
     [("repro.engine", "run_campaign"), ("repro.engine.campaign", "run_campaign")]),
    ("engine.plan", "engine", [("repro.engine.plan", "plan_campaign")]),
    ("engine.run_cell", "engine",
     [("repro.engine.campaign", "run_cell"), ("repro.engine.backends", "run_cell"),
      ("repro.engine.queue", "run_cell")]),
    ("engine.queue.claim_and_execute", "engine",
     [("repro.engine.queue", "claim_and_execute")]),
    ("engine.cache.claim", "engine", [("repro.engine.cache", "CampaignCache.claim")]),
    ("engine.cache.load_key", "engine",
     [("repro.engine.cache", "CampaignCache.load_key")]),
    ("engine.cache.store_key", "engine",
     [("repro.engine.cache", "CampaignCache.store_key")]),
    ("engine.cache.release", "engine",
     [("repro.engine.cache", "CampaignCache.release")]),
    ("engine.session.run", "engine",
     [("repro.engine.session", "SessionPipeline.run")]),
    ("rateless.uplink", "core.rateless",
     [("repro.engine.schemes", "run_rateless_uplink")]),
    ("rateless.try_decode", "core.rateless",
     [("repro.core.rateless", "RatelessDecoder.try_decode")]),
    ("rateless.verify.constellation", "core.rateless",
     [("repro.phy.constellation", "collision_constellation")]),
    ("bp_decoder.flip_rounds", "core.bp_decoder",
     [("KERNEL", "decode_best_of_state")]),
    ("bp_decoder.pair_scan", "core.bp_decoder",
     [("repro.core.bp_decoder", "best_pair_flip")]),
    ("decoder_state.append_slot", "core.decoder_state",
     [("repro.core.decoder_state", "DecoderState.append_slot")]),
    ("decoder_state.peel", "core.decoder_state",
     [("repro.core.decoder_state", "DecoderState.peel")]),
    ("identification.identify", "core.identification",
     [("repro.core.identification", "identify"), ("repro.engine.session", "identify"),
      ("repro.core.buzz", "identify")]),
    ("kestimate.estimate_k", "core.identification",
     [("repro.core.identification", "estimate_k")]),
    ("sensing.recover_sparse", "core.identification",
     [("repro.core.identification", "recover_sparse")]),
    ("sensing.basis_pursuit", "core.identification",
     [("repro.sensing.basis_pursuit", "basis_pursuit")]),
    ("mobile.segment", "core.mobile",
     [("repro.engine.session", "run_mobile_data_segment")]),
    ("sim.simulate", "sim", [("repro.sim.scheme", "simulate_multi_reader")]),
    ("sim.scheduler.run", "sim", [("repro.sim.scheduler", "EventScheduler.run")]),
    ("sim.interference.resolve_slot", "sim",
     [("repro.sim.multireader", "resolve_slot")]),
    ("phy.observe_block", "phy",
     [("repro.nodes.reader", "ReaderFrontEnd.observe_block")]),
    ("coding.prng.d_regen", "coding",
     [(module, "slot_decision_matrix") for module in _PRNG_CONSUMERS]),
    ("coding.crc.check", "coding",
     [("repro.coding.crc", "crc_check_matrix"), ("repro.core.rateless", "crc_check_matrix"),
      ("repro.coding.crc", "crc_check"), ("repro.baselines.tdma", "crc_check"),
      ("repro.baselines.cdma", "crc_check")]),
    ("baselines.tdma", "baselines", [("repro.engine.schemes", "run_tdma_uplink")]),
    ("baselines.cdma", "baselines", [("repro.engine.schemes", "run_cdma_uplink")]),
)

LAYER_OF = {name: layer for name, layer, _ in SPANS}


def _count_useful(counters, args, result):
    counters["bp_decoder.pair_scan.useful"] += result is not None


def _count_fruitless(counters, args, result):
    counters["rateless.try_decode.fruitless"] += result.newly_decoded == 0


def _count_lost(counters, args, result):
    counters["engine.cache.claim.lost"] += not result


def _count_hit(counters, args, result):
    counters["engine.cache.load_key.hits"] += result is not None


def _count_events(counters, args, result):
    # The simulator runs each scheduler once, so its total is the delta.
    counters["sim.scheduler.events"] += args[0].events_fired


#: Counters taken from a call's arguments and result, per span name.
COUNTERS = {
    "bp_decoder.pair_scan": _count_useful,
    "rateless.try_decode": _count_fruitless,
    "engine.cache.claim": _count_lost,
    "engine.cache.load_key": _count_hit,
    "sim.scheduler.run": _count_events,
}


class Tracer:
    """Install span wrappers on enter, restore every binding on exit.

    A tracer may be entered many times; spans and the traced wall time
    accumulate across entries. ``cell`` is the identifier stamped on new
    spans; the load loop bumps it whenever a cell finishes, so the spans
    of one cell share it.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: defaultdict = defaultdict(int)
        self.cell = 0
        self._stack: list = []
        self._restore: list = []
        self.origin = None  #: clock at the first entry
        self.wall_s = 0.0  #: traced wall time, summed over entries
        self._entered = 0.0

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.cell)
            if counter is not None:
                counter(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self) -> "Tracer":
        from repro.core.bp_decoder import resolve_kernel

        kernel = resolve_kernel()
        try:
            for name, _, bindings in SPANS:
                wrappers = {}  # one wrapper per original object
                for module_name, attr in bindings:
                    if module_name == "KERNEL":
                        owner, attr_name = kernel, attr
                    else:
                        owner = importlib.import_module(module_name)
                        *path, attr_name = attr.split(".")
                        for part in path:
                            owner = getattr(owner, part)
                    original = getattr(owner, attr_name)
                    own = owner.__dict__.get(attr_name, _MISSING)
                    wrapper = wrappers.get(id(original))
                    if wrapper is None:
                        wrapper = wrappers[id(original)] = self._wrap(name, original)
                    self._restore.append((owner, attr_name, own))
                    setattr(owner, attr_name, wrapper)
        except BaseException:
            self._unpatch()
            raise
        self._entered = time.perf_counter()
        if self.origin is None:
            self.origin = self._entered
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._entered
        self._unpatch()

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr_name, own = self._restore.pop()
            if own is _MISSING:
                delattr(owner, attr_name)  # it was inherited
            else:
                setattr(owner, attr_name, own)

    def summary(self) -> dict:
        """``{span name: {"calls", "self_s"}}`` plus per-layer shares."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        by_name = {name: {"calls": 0, "self_s": 0.0} for name, _, _ in SPANS}
        for (name, start, end, _, _), children in zip(self.spans, child_s):
            entry = by_name[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
        wall = self.wall_s
        shares = {layer: 0.0 for layer in LAYERS}
        for name, entry in by_name.items():
            shares[LAYER_OF[name]] += entry["self_s"] / wall
        shares["other"] = 1.0 - sum(shares.values())
        return {"spans": by_name, "layers": shares}

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.origin
        with gzip.open(path, "wt") as handle:
            for name, start, end, parent, cell in self.spans:
                handle.write(
                    json.dumps([name, start - t0, end - t0, parent, cell]) + "\n"
                )


_MISSING = object()
