"""Tag energy model (paper §9, Fig. 13).

The paper measures per-query energy as the voltage drop on a 0.1 F
capacitor: ``E = ½C(V0² − Vf²)``. What drives consumption differs by
scheme:

* **time reflecting** — the modulator and logic draw power while the tag
  drives its antenna (CDMA suffers here: spreading stretches every message
  K-fold);
* **impedance switches** — each transition costs charge (TDMA's Miller-4
  switches ≈ 8× per bit; plain OOK switches only on bit changes);
* **baseline wake/decode** — fixed per query.

Supply-voltage dependence: the Moo's regulator draws roughly constant
current from the storage capacitor, so power — and per-query energy — rises
~linearly with V0, which is why Fig. 13's bars grow with starting voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import ensure_positive

__all__ = ["EnergyProfile", "MOO_ENERGY_PROFILE", "TransmissionCost"]


@dataclass(frozen=True)
class TransmissionCost:
    """One transmission's accounting inputs."""

    on_air_s: float
    impedance_switches: int
    includes_wake: bool = True


@dataclass(frozen=True)
class EnergyProfile:
    """Per-tag energy constants.

    Attributes
    ----------
    p_active_w:
        Power drawn while the tag is awake and reflecting/modulating, at
        the nominal voltage ``v_nominal``.
    e_switch_j:
        Energy per impedance transition.
    e_wake_j:
        Fixed wake-up + command-decode energy per query, at ``v_nominal``.
    v_nominal:
        Voltage at which the above are specified; consumption scales by
        ``v / v_nominal`` (constant-current regulator model).
    """

    p_active_w: float = 4.0e-3
    e_switch_j: float = 5.0e-9
    e_wake_j: float = 1.5e-6
    v_nominal: float = 3.0

    def __post_init__(self) -> None:
        ensure_positive(self.p_active_w, "p_active_w")
        ensure_positive(self.e_switch_j, "e_switch_j")
        ensure_positive(self.e_wake_j, "e_wake_j")
        ensure_positive(self.v_nominal, "v_nominal")

    def energy_j(self, cost: TransmissionCost, voltage: float) -> float:
        """Energy of one transmission at the given supply voltage."""
        ensure_positive(voltage, "voltage")
        scale = voltage / self.v_nominal
        energy = cost.on_air_s * self.p_active_w + cost.impedance_switches * self.e_switch_j
        if cost.includes_wake:
            energy += self.e_wake_j
        return energy * scale


#: Constants calibrated to the Moo (MSP430 @ ~4 mW active) so that the
#: Fig. 13 reproduction lands in the paper's µJ-per-query range.
MOO_ENERGY_PROFILE = EnergyProfile()
