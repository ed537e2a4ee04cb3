"""Fig. 13: per-query tag energy consumption of the three schemes.

Measured in the paper by draining a 0.1 F capacitor over 8800 queries and
reading the voltage drop (``E = ½C(V0² − Vf²)``), for starting voltages
3/4/5 V. Consumption drivers per scheme:

* **TDMA** — one transmission, but Miller-4 switches the antenna impedance
  ~8× per bit;
* **CDMA** — the message is spread K-fold: each tag is on the air for
  ``N·P`` chips (by far the longest) and switches per chip;
* **Buzz** — plain OOK (switches only on bit changes) but transmits its
  message in a few randomly chosen slots (the sparse code), ending up only
  slightly above TDMA.

Energy rises roughly linearly with the starting voltage (constant-current
regulator), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.common import format_table
from repro.engine import SCHEMES, CampaignSpec, run_campaign
from repro.network.scenarios import (
    ScenarioLike,
    default_uplink_scenario,
    resolve_scenario_factory,
)
from repro.nodes.energy import MOO_ENERGY_PROFILE, EnergyProfile, TransmissionCost
from repro.gen2.timing import GEN2_DEFAULT_TIMING

__all__ = ["EnergyResult", "run", "render", "ook_switches"]


def ook_switches(message: np.ndarray) -> int:
    """Impedance transitions to OOK a message (level changes + initial set)."""
    bits = np.asarray(message).astype(int)
    if bits.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(bits) != 0)) + int(bits[0] == 1) + int(bits[-1] == 1)


@dataclass(frozen=True)
class EnergyResult:
    """Mean per-query per-tag energy (µJ) per scheme per starting voltage."""

    voltages: List[float]
    energy_uj: Dict[str, Dict[float, float]]

    def mean_energy_uj(self, scheme: str, voltage: float) -> float:
        return self.energy_uj[scheme][voltage]


def run(
    n_tags: int = 8,
    voltages: Sequence[float] = (3.0, 4.0, 5.0),
    message_bits: int = 32,
    n_locations: int = 6,
    n_traces: int = 2,
    seed: int = 13,
    profile: EnergyProfile = MOO_ENERGY_PROFILE,
    schemes: Sequence[str] = SCHEMES,
    scenario: ScenarioLike = None,
    jobs: int = 1,
    cache_dir: str = None,
    backend: str = None,
    on_cell=None,
) -> EnergyResult:
    """Account energy per scheme from the campaign's transmission records.

    The same campaign (channels, schedules) is re-priced at each starting
    voltage, mirroring the paper's repeated 8800-query drains.
    """
    factory = resolve_scenario_factory(
        scenario,
        lambda k: default_uplink_scenario(k, message_bits=message_bits),
        message_bits=message_bits,
    )
    spec = CampaignSpec(
        scenario=factory(n_tags),
        root_seed=seed,
        n_locations=n_locations,
        n_traces=n_traces,
        schemes=schemes,
    )
    campaign = run_campaign(
        spec,
        jobs=jobs,
        cache_dir=cache_dir,
        backend=backend,
        on_cell=on_cell,
    )
    bit_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps
    p_bits = message_bits + 5  # payload + CRC-5

    # Scheme-specific cost of one *transmission* by one tag. Message-level
    # switch counts vary per message; an expectation over random bits is
    # accurate to a few per cent and keeps this pricing closed-form.
    # Rateless-style schemes (buzz, silenced, and anything else emitting
    # per-tag slot counts) price as plain OOK per transmitted slot — for
    # the silenced variant the ACK is downlink airtime, not tag energy, so
    # its saving shows up purely through the smaller transmission counts.
    #
    # Session (e2e/adaptive) records carry the per-stage split: their
    # `data_transmissions` are P-symbol message sends priced like the data
    # scheme's, while the remaining `transmissions` are *identification
    # reflections* — a Buzz tag reflects for a single uplink symbol in a
    # K-estimation/bucket/CS slot (2 impedance switches), a Gen-2 tag
    # replies with its RN16. Pricing those reflections as full messages
    # would overstate session energy by the identification/data slot ratio.
    ook_sw = p_bits / 2 + 1
    miller_sw = 8 * p_bits
    # Pricing families by exact registry name (a substring match would
    # silently capture future schemes): which schemes send Miller-4 data,
    # and which sessions identify via a Gen-2 inventory (RN16 replies)
    # rather than Buzz's one-symbol reflections.
    miller_data_schemes = {"tdma", "gen2-tdma-e2e"}
    gen2_identification_schemes = {"gen2-tdma-e2e"}
    costs = {}
    for scheme in schemes:
        runs = campaign.by_scheme(scheme)
        totals = []
        for record in runs:
            # Each record prices as a list of (per-tag counts, on-air
            # seconds per event, switches per event) components.
            if scheme == "cdma":
                n = record.slots_used  # spreading factor for cdma records
                components = [
                    (record.transmissions, p_bits * n * bit_s, p_bits * n / 2)
                ]
            else:
                if record.data_transmissions is not None:
                    data_tx = np.asarray(record.data_transmissions, dtype=float)
                    ident_tx = np.asarray(record.transmissions, dtype=float) - data_tx
                    if scheme in gen2_identification_schemes:
                        ident_bits = GEN2_DEFAULT_TIMING.rn16_bits
                        ident_sw = ident_bits / 2 + 1  # FM0 RN16 reply
                    else:
                        ident_bits, ident_sw = 1, 2  # one-symbol reflection
                    ident = [(ident_tx, ident_bits * bit_s, ident_sw)]
                else:
                    data_tx = np.asarray(record.transmissions, dtype=float)
                    ident = []
                if scheme in miller_data_schemes:
                    components = [(data_tx, p_bits * bit_s, miller_sw)] + ident
                else:
                    components = [(data_tx, p_bits * bit_s, ook_sw)] + ident
            totals.append(components)
        costs[scheme] = totals

    energy: Dict[str, Dict[float, float]] = {s: {} for s in costs}
    for scheme, totals in costs.items():
        for v in voltages:
            per_tag_energies = []
            for components in totals:
                k = len(components[0][0])
                for tag in range(k):
                    on_air_s = sum(
                        on_air * counts[tag] for counts, on_air, _ in components
                    )
                    switches = sum(
                        sw * counts[tag] for counts, _, sw in components
                    )
                    cost = TransmissionCost(
                        on_air_s=on_air_s,
                        impedance_switches=int(switches),
                        includes_wake=True,
                    )
                    per_tag_energies.append(profile.energy_j(cost, v))
            energy[scheme][v] = float(np.mean(per_tag_energies) * 1e6)
    return EnergyResult(voltages=list(voltages), energy_uj=energy)


def render(result: EnergyResult) -> str:
    schemes = list(result.energy_uj)
    rows = [
        (f"{v:.0f} V", *(result.mean_energy_uj(s, v) for s in schemes))
        for v in result.voltages
    ]
    table = format_table(["V0"] + [f"{s.upper()} uJ" for s in schemes], rows)
    if not {"buzz", "tdma", "cdma"} <= set(schemes):
        return table  # the paper's claim is about the full comparison
    summary = (
        "\nFig. 13 reproduction (paper: Buzz ~= TDMA; CDMA several times higher; "
        "all grow with starting voltage)"
    )
    return table + summary


if __name__ == "__main__":
    print(render(run()))
