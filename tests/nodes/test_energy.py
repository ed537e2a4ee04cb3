"""Tests for repro.nodes.energy."""

import pytest

from repro.nodes.energy import (
    EnergyProfile,
    MOO_ENERGY_PROFILE,
    TransmissionCost,
)


class TestEnergyProfile:
    def test_components_add(self):
        profile = EnergyProfile(p_active_w=1e-3, e_switch_j=1e-9, e_wake_j=1e-6, v_nominal=3.0)
        cost = TransmissionCost(on_air_s=1e-3, impedance_switches=100)
        expected = 1e-3 * 1e-3 + 100 * 1e-9 + 1e-6
        assert profile.energy_j(cost, 3.0) == pytest.approx(expected)

    def test_voltage_scaling_linear(self):
        cost = TransmissionCost(on_air_s=1e-3, impedance_switches=10)
        e3 = MOO_ENERGY_PROFILE.energy_j(cost, 3.0)
        e5 = MOO_ENERGY_PROFILE.energy_j(cost, 5.0)
        assert e5 / e3 == pytest.approx(5.0 / 3.0)

    def test_wake_optional(self):
        cost_with = TransmissionCost(on_air_s=0.0, impedance_switches=0, includes_wake=True)
        cost_without = TransmissionCost(on_air_s=0.0, impedance_switches=0, includes_wake=False)
        assert MOO_ENERGY_PROFILE.energy_j(cost_with, 3.0) > 0
        assert MOO_ENERGY_PROFILE.energy_j(cost_without, 3.0) == 0.0

    def test_invalid_voltage_rejected(self):
        with pytest.raises(ValueError):
            MOO_ENERGY_PROFILE.energy_j(TransmissionCost(1e-3, 1), 0.0)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            EnergyProfile(p_active_w=0.0)
