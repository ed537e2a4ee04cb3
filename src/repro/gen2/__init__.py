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

from repro.gen2.fsa import FsaConfig, FsaResult, run_fsa_inventory
from repro.gen2.qalgorithm import QAlgorithm
from repro.gen2.timing import GEN2_DEFAULT_TIMING, LinkTiming, SlotOutcome

__all__ = [
    "FsaConfig",
    "FsaResult",
    "GEN2_DEFAULT_TIMING",
    "LinkTiming",
    "QAlgorithm",
    "SlotOutcome",
    "run_fsa_inventory",
]
