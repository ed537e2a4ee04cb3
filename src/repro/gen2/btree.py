"""Binary-search-tree anti-collision — the classic alternative to FSA.

The survey the paper cites ([31] Klair et al.) covers two families of
RFID anti-collision protocols: ALOHA-based (the Gen-2 FSA we implement in
:mod:`repro.gen2.fsa`) and tree-based. This module implements the binary
splitting tree for completeness of the identification-baseline family:

The reader maintains a stack of id-prefixes. It queries a prefix; every
unresolved tag whose temporary id starts with that prefix replies.

* no reply → prune the subtree;
* one reply → the tag is identified and ACKed;
* collision → push both one-bit extensions of the prefix.

Deterministic, collision-count bounded by ~2K·log(N/K), but every query is
a full downlink command, which is why tree protocols lose to FSA on
wall-clock time at Gen-2 command rates — visible in the identification
ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.gen2.timing import GEN2_DEFAULT_TIMING, LinkTiming
from repro.utils.validation import ensure_positive_int

__all__ = ["BTreeConfig", "BTreeResult", "run_btree_inventory"]


@dataclass(frozen=True)
class BTreeConfig:
    """Parameters of one binary-tree inventory run."""

    n_tags: int
    id_bits: int = 16
    timing: LinkTiming = GEN2_DEFAULT_TIMING
    max_queries: int = 100_000

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_tags, "n_tags")
        ensure_positive_int(self.id_bits, "id_bits")
        ensure_positive_int(self.max_queries, "max_queries")


@dataclass
class BTreeResult:
    """Outcome of a binary-tree inventory."""

    identified: int
    total_time_s: float
    queries: int
    collision_queries: int
    empty_queries: int
    success_queries: int
    max_depth: int
    #: Total tag replies across every query (all prefix-matching unresolved
    #: tags reply) — the inventory's tag-side energy driver.
    total_replies: int = 0


def run_btree_inventory(config: BTreeConfig, rng: np.random.Generator) -> BTreeResult:
    """Simulate the binary splitting tree over random tag ids.

    Tags draw distinct ``id_bits``-bit temporary ids (re-drawn on the rare
    duplicate, as a real system would re-randomise after a failed round).
    Query cost: prefix command at the downlink rate + T1 + reply (id
    remainder) or T3 when silent; successes add an ACK like FSA.
    """
    timing = config.timing
    space = 1 << config.id_bits
    if config.n_tags > space:
        raise ValueError("id space too small")
    ids = rng.choice(space, size=config.n_tags, replace=False).astype(np.uint64)

    # Stack of (prefix_value, prefix_len).
    stack: List[tuple] = [(0, 0)]
    identified = 0
    queries = collisions = empties = successes = replies = 0
    total_time = timing.query_duration_s()
    resolved = np.zeros(config.n_tags, dtype=bool)
    max_depth = 0

    while stack and queries < config.max_queries:
        prefix, depth = stack.pop()
        queries += 1
        max_depth = max(max_depth, depth)
        # Which unresolved tags match the prefix?
        shift = np.uint64(config.id_bits - depth)
        matches = np.flatnonzero(
            (~resolved) & ((ids >> shift) == np.uint64(prefix)) if depth else ~resolved
        )
        # Command: prefix broadcast; reply: the id remainder.
        command_bits = 4 + depth
        reply_bits = config.id_bits - depth
        total_time += timing.downlink_s(command_bits) + timing.t1_s
        replies += int(matches.size)
        if matches.size == 0:
            empties += 1
            total_time += timing.t3_s
        elif matches.size == 1:
            successes += 1
            identified += 1
            resolved[matches[0]] = True
            total_time += (
                timing.uplink_s(reply_bits)
                + timing.t2_s
                + timing.downlink_s(timing.ack_bits)
                + timing.t1_s
            )
        else:
            collisions += 1
            total_time += timing.uplink_s(reply_bits) + timing.t2_s
            if depth < config.id_bits:
                stack.append(((prefix << 1) | 1, depth + 1))
                stack.append((prefix << 1, depth + 1))

    return BTreeResult(
        identified=identified,
        total_time_s=total_time,
        queries=queries,
        collision_queries=collisions,
        empty_queries=empties,
        success_queries=successes,
        max_depth=max_depth,
        total_replies=replies,
    )
