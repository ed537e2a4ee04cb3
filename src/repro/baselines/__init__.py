"""Uplink baselines the paper compares Buzz against (§9).

* :mod:`repro.baselines.tdma` — sequential transmission, one tag per slot,
  messages protected with Miller-4 (the EPC Gen-2 recommendation). Fixed
  1 bit/symbol; robustness comes from the Miller matched filter's ~M×
  processing gain at the cost of ~2M impedance switches per bit.
* :mod:`repro.baselines.cdma` — synchronous CDMA with Walsh codes and a
  standard correlator receiver. Orthogonality holds only under perfect
  chip alignment; the measured tag sync offsets leak a fraction of every
  strong tag's power into every other correlator, which is how the near-far
  effect destroys CDMA in backscatter (the paper's 100 % loss case).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.baselines.cdma": ("CdmaResult", "run_cdma_uplink"),
        "repro.baselines.tdma": ("TdmaResult", "run_tdma_uplink"),
    },
)
