"""EPC Gen-2 substrate: link timing, the Q algorithm and Framed Slotted ALOHA.

The paper's identification baseline (§10) is the EPC Class-1 Generation-2
inventory procedure: framed-slotted ALOHA with the standard's adaptive Q
algorithm, 16-bit temporary ids (RN16), and per-tag ACKs. This package
implements that substrate:

* :mod:`repro.gen2.timing` — air-interface timing (command lengths, link
  rates, inter-frame gaps) so identification cost is reported in
  milliseconds like the paper's Fig. 14;
* :mod:`repro.gen2.qalgorithm` — the standard's Q-adjustment loop
  (C = 0.3, initial Q = 4);
* :mod:`repro.gen2.fsa` — the inventory simulation, plain and augmented
  with Buzz's Stage-1 estimate K̂ ("FSA with known K").
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.gen2.fsa": ("FsaConfig", "FsaResult", "run_fsa_inventory"),
        "repro.gen2.qalgorithm": ("QAlgorithm",),
        "repro.gen2.timing": ("GEN2_DEFAULT_TIMING", "LinkTiming", "SlotOutcome"),
    },
)
