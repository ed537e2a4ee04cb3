"""Physical-layer substrate for backscatter simulation.

The paper's key PHY observation (§2) is that a narrowband backscatter link is
a **single-tap channel**: each tag's contribution to the received baseband is
its transmitted bit (0/1, ON-OFF keying) multiplied by one complex
coefficient ``h_i``, plus the reader's continuous-wave leakage and thermal
noise. There is no carrier-frequency offset because tags reflect the reader's
own carrier.

This package implements that model at two resolutions:

* **per-slot symbols** — one complex sample per time slot, the abstraction
  Buzz's identification and rateless decoders consume (Eq. 3 / Eq. 7);
* **oversampled waveforms** — magnitude/IQ traces with many samples per bit,
  used by the microbenchmarks (Figs. 2, 3, 8) and the synchronization study.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.phy.channel": ("ChannelModel",),
        "repro.phy.constellation": (
            "Constellation",
            "collision_constellation",
            "min_distance",
            "nearest_point",
        ),
        "repro.phy.noise": ("awgn", "snr_db as measure_snr_db"),
        "repro.phy.signal": (
            "CW_LEVEL",
            "collision_trace",
            "ook_waveform",
            "received_symbols",
            "slot_energies",
            "tag_baseband",
        ),
        "repro.phy.sync": (
            "ClockModel",
            "SyncProfile",
            "COMMERCIAL_RFID_SYNC",
            "MOO_RFID_SYNC",
            "misalignment_fraction",
        ),
    },
)
