"""Link-layer and line coding used by backscatter systems.

Contents:

* :mod:`repro.coding.crc` — EPC Gen-2 CRC-5 and CRC-16 (the paper's
  messages carry a 5-bit CRC; Gen-2 frames use CRC-16).
* :mod:`repro.coding.miller` — the Gen-2 Miller uplink line code. TDMA in
  the paper protects messages with Miller-4, which trades 8× more
  impedance switching for noise robustness.
* :mod:`repro.coding.walsh` — Walsh-Hadamard orthogonal codes for the
  synchronous-CDMA baseline.
* :mod:`repro.coding.prng` — the deterministic per-tag pseudorandom
  decision both the tags and the reader run (a stateless hash-based
  slot-decision function), the mechanism that lets the reader regenerate
  the sensing matrix A and collision matrix D.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.coding.crc": (
            "CRC5_GEN2",
            "CRC16_GEN2",
            "CrcSpec",
            "crc_append",
            "crc_check",
            "crc_compute",
        ),
        "repro.coding.miller": (
            "miller_basis",
            "miller_decode",
            "miller_encode",
            "miller_switch_count",
        ),
        "repro.coding.prng": ("slot_decision", "transmit_pattern_matrix"),
        "repro.coding.walsh": ("walsh_code_length", "walsh_codes"),
    },
)
