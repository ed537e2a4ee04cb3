"""Stage 2 — reducing the compressive-sensing scale by bucket hashing (§5.1.B).

The temporary-id space of size ``a·c·K̂`` is hashed into ``c·K̂`` buckets of
``a`` ids each. One time slot represents each bucket: a node reflects in the
slot its temporary id hashes to. Ids hashing to slots with no detected
energy cannot belong to any active node and are eliminated — at most
``a·K`` candidates survive, independent of the network size N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag, bucket_hash_array

__all__ = ["BucketingResult", "bucket_transmit_matrix", "run_bucketing", "candidate_ids"]


@dataclass(frozen=True)
class BucketingResult:
    """Outcome of the Stage-2 elimination.

    Attributes
    ----------
    occupied:
        Boolean occupancy per bucket as the reader detected it.
    candidates:
        Sorted temporary ids that hash to an occupied bucket.
    slots_used:
        Bucket slots consumed (= number of buckets).
    """

    occupied: np.ndarray
    candidates: np.ndarray
    slots_used: int

    @property
    def n_candidates(self) -> int:
        return int(self.candidates.size)


def bucket_transmit_matrix(tags: Sequence[BackscatterTag], n_buckets: int) -> np.ndarray:
    """``(n_buckets, K)`` schedule: tag *i* reflects only in its bucket's slot."""
    matrix = np.zeros((n_buckets, len(tags)), dtype=np.uint8)
    for col, tag in enumerate(tags):
        matrix[tag.bucket_of(n_buckets), col] = 1
    return matrix


def candidate_ids(occupied: np.ndarray, id_space: int) -> np.ndarray:
    """All temporary ids whose bucket is occupied.

    The reader evaluates the shared bucket hash over the whole (reduced)
    id space — ``a·c·K̂`` ids, a function of K̂ only, never of N.
    """
    occupied = np.asarray(occupied, dtype=bool)
    n_buckets = occupied.size
    ids = np.arange(id_space, dtype=int)
    buckets = bucket_hash_array(ids, n_buckets)
    return ids[occupied[buckets]]


def run_bucketing(
    tags: Sequence[BackscatterTag],
    n_buckets: int,
    id_space: int,
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
) -> BucketingResult:
    """Run the bucket phase on the air and eliminate empty-bucket ids."""
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    channels = np.array([t.channel for t in tags], dtype=complex)
    matrix = bucket_transmit_matrix(tags, n_buckets)
    if len(tags) == 0:
        symbols = front_end.observe_empty(n_buckets, rng)
    else:
        symbols = front_end.observe(matrix, channels, rng)
    occupied = front_end.occupied(symbols)
    cands = candidate_ids(occupied, id_space)
    return BucketingResult(occupied=occupied, candidates=cands, slots_used=n_buckets)
