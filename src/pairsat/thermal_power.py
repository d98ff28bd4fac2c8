"""Lumped thermal model of the optical housing and the electrical power ledger.

One thermal node with Newton coupling to the environment, heated by a
bang-bang heater and by the dissipation of the powered electronics. The
power ledger enforces the 2 W bus budget at all times.

The laser bit is the ledger's one input: with the laser on every module is
powered (`OPERATING_MODULES`) and the heater is capped at
`HEATER_CAP_OPERATING_W`; with it off only the controller is
(`IDLE_MODULES`), under `HEATER_CAP_IDLE_W`.

The payload is one fixed build: one housing, one set of modules and one
bus. Its heat capacity, conductance, module draws, dissipation shares, caps
and budget are module constants, which the functions read when called.
"""

from __future__ import annotations

from dataclasses import dataclass

# electrical draws per module, watts
MODULE_DRAWS_W = {
    "apds": 0.5,
    "laser_driver": 0.45,
    "controller_and_memory": 0.3,
    "liquid_crystal": 0.05,
}
# the modules powered with the laser on, and with it off
OPERATING_MODULES = frozenset(MODULE_DRAWS_W)
IDLE_MODULES = frozenset({"controller_and_memory"})

HEATER_CAP_OPERATING_W = 0.7
HEATER_CAP_IDLE_W = 1.7
POWER_BUDGET_W = 2.0

HEATER_ON_BELOW_C = 20.0
HEATER_OFF_ABOVE_C = 22.0

# the optical housing node
HOUSING_HEAT_CAPACITY_J_PER_C = 225.0
HOUSING_CONDUCTANCE_W_PER_C = 0.05

# share of each module's draw that heats the optical housing node; the
# controller board and most of the laser driver dump heat elsewhere
DEFAULT_DISSIPATION_W = {
    "apds": 0.15,
    "laser_driver": 0.10,
    "controller_and_memory": 0.0,
    "liquid_crystal": 0.05,
}


class BudgetError(Exception):
    """Total electrical draw exceeded the bus budget."""


@dataclass
class ThermalState:
    housing_temp_c: float
    heater_watts: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.heater_watts <= HEATER_CAP_IDLE_W:
            raise ValueError("heater_watts outside [0, idle cap]")


def internal_dissipation(laser_on: bool) -> float:
    """Housing heat of the modules powered with the laser on or off, summed
    in the dissipation map's order."""
    modules = OPERATING_MODULES if laser_on else IDLE_MODULES
    return sum(w for m, w in DEFAULT_DISSIPATION_W.items() if m in modules)


def step_thermal(
    state: ThermalState,
    external_temp_c: float,
    dt: float,
    laser_on: bool = False,
) -> ThermalState:
    """One explicit Euler step of the housing node."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    temp = housing_step(
        state.housing_temp_c, state.heater_watts,
        internal_dissipation(laser_on), external_temp_c, dt,
    )
    return ThermalState(housing_temp_c=temp, heater_watts=state.heater_watts)


def housing_step(
    housing_temp_c: float,
    heater_watts: float,
    dissipation_w: float,
    external_temp_c: float,
    dt: float,
) -> float:
    """The housing temperature after one explicit Euler step of `dt`: the
    heat in, less the flow out through `HOUSING_CONDUCTANCE_W_PER_C`, over
    `HOUSING_HEAT_CAPACITY_J_PER_C`.

    `step_thermal` and the tests' reference engine call it. The engine
    inlines the same expression, in the same operation order, in
    `SimulationEngine._advance` and `_operating_stretch`, against the series
    of `scenarios.boundary_temps`, so every tick rounds the same way.
    """
    flow = (
        heater_watts
        + dissipation_w
        - HOUSING_CONDUCTANCE_W_PER_C * (housing_temp_c - external_temp_c)
    )
    return housing_temp_c + dt * flow / HOUSING_HEAT_CAPACITY_J_PER_C


def heater_cap(laser_on: bool) -> float:
    return HEATER_CAP_OPERATING_W if laser_on else HEATER_CAP_IDLE_W


def heater_command(housing_temp_c: float, laser_on: bool, previous_watts: float) -> float:
    """Bang-bang heater with hysteresis.

    Full allowed power below the lower threshold, zero above the upper one,
    and the previous on/off decision held in between (re-capped if the laser
    switched).
    """
    cap = heater_cap(laser_on)
    if housing_temp_c < HEATER_ON_BELOW_C:
        return cap
    if housing_temp_c > HEATER_OFF_ABOVE_C:
        return 0.0
    return cap if previous_watts > 0.0 else 0.0


def total_power(laser_on: bool, heater_watts: float) -> float:
    """Exact sum of the heater power and the draws (`MODULE_DRAWS_W`) of the
    modules powered with the laser on or off, added in the draw map's order.

    Raises ValueError for a heater over the cap of that laser state, and
    BudgetError beyond `POWER_BUDGET_W`; exactly 2.0 W is allowed.
    """
    if heater_watts < 0:
        raise ValueError("heater_watts must be nonnegative")
    cap = heater_cap(laser_on)
    if heater_watts > cap + 1e-12:
        raise ValueError(f"heater {heater_watts} W exceeds its {cap} W cap")
    modules = OPERATING_MODULES if laser_on else IDLE_MODULES
    total = heater_watts
    for m, w in MODULE_DRAWS_W.items():
        if m in modules:
            total += w
    if total > POWER_BUDGET_W + 1e-9:
        raise BudgetError(f"total draw {total:.3f} W exceeds {POWER_BUDGET_W} W budget")
    return total
