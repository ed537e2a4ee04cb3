"""Buzz core: the paper's primary contribution.

* :mod:`repro.core.config` — protocol parameters (paper defaults).
* :mod:`repro.core.kestimate` — Stage 1, streaming K estimation.
* :mod:`repro.core.bucketing` — Stage 2, id-space reduction by hashing.
* :mod:`repro.core.identification` — the full three-stage protocol.
* :mod:`repro.core.bp_decoder` — bit-flipping belief propagation (Alg. 1).
* :mod:`repro.core.rateless` — the distributed rateless collision code.
* :mod:`repro.core.buzz` — end-to-end system.
* :mod:`repro.core.reference` — the test oracles (scalar decoder, rebuild
  reader); no production module imports it.
"""

from repro.core.bucketing import BucketingResult, candidate_ids, run_bucketing
from repro.core.buzz import BuzzRunResult, BuzzSystem
from repro.core.config import BuzzConfig
from repro.core.identification import IdentificationResult, identify
from repro.core.kestimate import KEstimateResult, estimate_k
from repro.core.rateless import (
    DecodeProgress,
    RatelessDecoder,
    RatelessRunResult,
    run_rateless_uplink,
)
from repro.core.silencing import run_rateless_with_silencing

__all__ = [
    "BucketingResult",
    "BuzzConfig",
    "BuzzRunResult",
    "BuzzSystem",
    "DecodeProgress",
    "IdentificationResult",
    "KEstimateResult",
    "RatelessDecoder",
    "RatelessRunResult",
    "candidate_ids",
    "estimate_k",
    "identify",
    "run_bucketing",
    "run_rateless_uplink",
    "run_rateless_with_silencing",
]
