"""Housing thermal dynamics, heater hysteresis, and the 2 W ledger."""

import pytest

from pairsat.thermal_power import (
    DEFAULT_DISSIPATION_W,
    HEATER_CAP_IDLE_W,
    HEATER_CAP_OPERATING_W,
    IDLE_MODULES,
    MODULE_DRAWS_W,
    OPERATING_MODULES,
    POWER_BUDGET_W,
    BudgetError,
    ThermalState,
    heater_cap,
    heater_command,
    internal_dissipation,
    step_thermal,
    total_power,
)

def test_module_draw_sum_is_exact():
    assert sum(MODULE_DRAWS_W.values()) == 1.3
    assert MODULE_DRAWS_W["apds"] == 0.5
    assert MODULE_DRAWS_W["laser_driver"] == 0.45
    assert MODULE_DRAWS_W["controller_and_memory"] == 0.3
    assert MODULE_DRAWS_W["liquid_crystal"] == 0.05


def test_module_sets():
    # the laser powers every module; without it only the controller runs
    assert OPERATING_MODULES == set(MODULE_DRAWS_W) == set(DEFAULT_DISSIPATION_W)
    assert IDLE_MODULES == {"controller_and_memory"}


def test_total_power_examples():
    assert total_power(True, 0.0) == 1.3
    assert total_power(False, 0.0) == 0.3
    assert total_power(False, 1.7) == 2.0
    assert total_power(True, 0.7) == 2.0


def test_budget_violation_raises(monkeypatch):
    # no laser state with its heater in cap exceeds 2 W; a lower budget does
    monkeypatch.setattr("pairsat.thermal_power.POWER_BUDGET_W", 1.9)
    with pytest.raises(BudgetError, match="2.000 W"):
        total_power(True, 0.7)
    with pytest.raises(BudgetError, match="2.000 W"):
        total_power(False, 1.7)
    assert total_power(True, 0.6) == pytest.approx(1.9)


def test_heater_over_its_cap_raises():
    # the laser-on cap rejects a heater that would fit the budget
    with pytest.raises(ValueError, match="0.7 W cap"):
        total_power(True, 0.8)
    with pytest.raises(ValueError, match="1.7 W cap"):
        total_power(False, 1.8)
    with pytest.raises(ValueError, match="nonnegative"):
        total_power(False, -0.1)


def test_heater_caps(monkeypatch):
    assert heater_cap(True) == HEATER_CAP_OPERATING_W == 0.7
    assert heater_cap(False) == HEATER_CAP_IDLE_W == 1.7
    # read when called
    monkeypatch.setattr("pairsat.thermal_power.HEATER_CAP_OPERATING_W", 1.0)
    assert heater_cap(True) == 1.0
    assert heater_command(15.0, True, 0.0) == 1.0


def test_heater_command_band():
    assert heater_command(15.0, False, 0.0) == 1.7
    assert heater_command(15.0, True, 0.0) == 0.7
    assert heater_command(25.0, True, 0.0) == 0.0
    # inside the band the previous command holds, re-capped for the laser
    assert heater_command(21.0, False, previous_watts=1.7) == 1.7
    assert heater_command(21.0, False, previous_watts=0.0) == 0.0
    assert heater_command(21.0, True, previous_watts=1.7) == 0.7


def test_heater_no_chatter_on_ramp():
    # monotone warm-up switches the command exactly once
    watts = 0.7
    switches = 0
    prev = watts
    for i in range(400):
        temp = 15.0 + i * 0.025
        watts = heater_command(temp, True, watts)
        if watts != prev:
            switches += 1
        prev = watts
    assert switches == 1
    assert watts == 0.0


def test_thermal_equilibrium_and_cooling():
    state = ThermalState(housing_temp_c=10.0, heater_watts=0.0)
    after = step_thermal(state, 10.0, 1.0)
    assert after.housing_temp_c == 10.0

    warm = ThermalState(housing_temp_c=30.0, heater_watts=0.0)
    cooled = step_thermal(warm, 10.0, 1.0)
    assert cooled.housing_temp_c < 30.0


def test_thermal_steady_state_offset():
    # 0.7 W against 0.05 W/C conductance settles 14 C above ambient
    state = ThermalState(housing_temp_c=0.0, heater_watts=0.7)
    for _ in range(400000):
        state = step_thermal(state, 0.0, 1.0)
    assert state.housing_temp_c == pytest.approx(14.0, abs=1e-6)


def test_internal_dissipation_map():
    assert internal_dissipation(True) == 0.3
    assert internal_dissipation(False) == 0.0
    assert DEFAULT_DISSIPATION_W["apds"] == 0.15


def test_dissipation_warms_housing():
    idle = ThermalState(housing_temp_c=20.0, heater_watts=0.0)
    active = ThermalState(housing_temp_c=20.0, heater_watts=0.0)
    idle = step_thermal(idle, 20.0, 10.0)
    active = step_thermal(active, 20.0, 10.0, laser_on=True)
    assert active.housing_temp_c > idle.housing_temp_c


def test_thermal_state_validation():
    with pytest.raises(ValueError):
        ThermalState(housing_temp_c=20.0, heater_watts=-0.1)
    with pytest.raises(ValueError):
        ThermalState(housing_temp_c=20.0, heater_watts=1.8)


def test_budget_constant():
    assert POWER_BUDGET_W == 2.0
