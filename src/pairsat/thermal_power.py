"""Lumped thermal model of the optical housing and the electrical power ledger.

One thermal node with Newton coupling to the environment, heated by a
bang-bang heater and by the dissipation of whichever electronics are
active. The power ledger enforces the 2 W bus budget at all times.

The payload is one fixed build: one housing, one set of modules and one
bus. Its heat capacity, conductance, module draws, dissipation shares and
budget are module constants, which the functions read when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

# electrical draws per module, watts
MODULE_DRAWS_W = {
    "apds": 0.5,
    "laser_driver": 0.45,
    "controller_and_memory": 0.3,
    "liquid_crystal": 0.05,
}

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


def internal_dissipation(active: Collection[str]) -> float:
    """Housing heat of the active modules, summed in the dissipation map's
    order so that the float sum does not depend on the order of `active`."""
    return sum(w for m, w in DEFAULT_DISSIPATION_W.items() if m in active)


def step_thermal(
    state: ThermalState,
    external_temp_c: float,
    dt: float,
    active: Collection[str] = (),
) -> ThermalState:
    """One explicit Euler step of the housing node."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    temp = housing_step(
        state.housing_temp_c, state.heater_watts,
        internal_dissipation(active), external_temp_c, dt,
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


def heater_cap(mode: str) -> float:
    if mode == "operating":
        return HEATER_CAP_OPERATING_W
    if mode == "idle":
        return HEATER_CAP_IDLE_W
    raise ValueError(f"unknown heater mode {mode!r}")


def heater_command(housing_temp_c: float, mode: str, previous_watts: float) -> float:
    """Bang-bang heater with hysteresis.

    Full allowed power below the lower threshold, zero above the upper one,
    and the previous on/off decision held in between (re-capped if the mode
    changed).
    """
    cap = heater_cap(mode)
    if housing_temp_c < HEATER_ON_BELOW_C:
        return cap
    if housing_temp_c > HEATER_OFF_ABOVE_C:
        return 0.0
    return cap if previous_watts > 0.0 else 0.0


def total_power(active: Iterable[str], heater_watts: float, mode: str) -> float:
    """Exact sum of the heater power and the active modules' draws
    (`MODULE_DRAWS_W`), added in the order of `active`.

    Raises ValueError for a heater over the cap of its heater `mode`, and
    BudgetError beyond `POWER_BUDGET_W`; exactly 2.0 W is allowed.
    """
    if heater_watts < 0:
        raise ValueError("heater_watts must be nonnegative")
    if heater_watts > heater_cap(mode) + 1e-12:
        raise ValueError(f"heater {heater_watts} W exceeds the {mode} cap")
    total = heater_watts
    for m in active:
        try:
            total += MODULE_DRAWS_W[m]
        except KeyError:
            raise ValueError(f"unknown module {m!r} in active set") from None
    if total > POWER_BUDGET_W + 1e-9:
        raise BudgetError(f"total draw {total:.3f} W exceeds {POWER_BUDGET_W} W budget")
    return total
