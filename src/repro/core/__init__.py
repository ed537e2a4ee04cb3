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

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.bucketing": ("BucketingResult", "candidate_ids", "run_bucketing"),
        "repro.core.buzz": ("BuzzRunResult", "BuzzSystem"),
        "repro.core.config": ("BuzzConfig",),
        "repro.core.identification": ("IdentificationResult", "identify"),
        "repro.core.kestimate": ("KEstimateResult", "estimate_k"),
        "repro.core.rateless": (
            "DecodeProgress",
            "RatelessDecoder",
            "RatelessRunResult",
            "run_rateless_uplink",
        ),
        "repro.core.silencing": ("run_rateless_with_silencing",),
    },
)
