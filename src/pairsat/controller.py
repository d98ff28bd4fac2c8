"""Autonomous flight-control state machine and the LC scan protocol.

The controller powers up into a thermal gate: it heats the optical housing
when cold, waits when hot, and only then turns the pump laser on. Once the
laser power has been stable for a full monitoring window, it steps the
signal-arm liquid crystal through a full rotation, dwelling at each voltage
after a fixed settling time, stores the completed scan, swaps to the other
detector pair, and re-enters the gate. A laser instability during a scan
discards the partial scan and holds in a fault state before retrying.

Detector bias is closed-loop: each APD's supply voltage tracks its
temperature-drifting breakdown voltage so the avalanche amplitude, and
with it the detection efficiency, stays constant.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import physics, thermal_power
from .lc_optics import LcCalibration, angle_from_voltage, polarization_mixing
from .physics import ApdParams, CountSample, SourceParams

TICK_S = 0.05
TICK_MS = 50

# PI gains for the bias loop, volts per unit relative amplitude error per
# iteration. Sized so the loop settles to <1% of setpoint within 50
# iterations against the linear avalanche model (slow pole |z| ~ 0.71).
BIAS_KP = 5.0
BIAS_KI = 1.0
BIAS_SETPOINT = 1.0
BIAS_RAIL_FAULT_S = 60.0

STABILITY_WINDOW_S = 10.0
STABILITY_THRESHOLD = 0.05
FAULT_HOLD_S = 30.0

PAIR_1_4 = 0
PAIR_2_3 = 1

# detector channel indices (signal-arm APD, idler-arm APD) per pair
PAIR_CHANNELS = {PAIR_1_4: (0, 3), PAIR_2_3: (1, 2)}

OPERATING_MODULES = frozenset(
    {"apds", "laser_driver", "controller_and_memory", "liquid_crystal"}
)
IDLE_MODULES = frozenset({"controller_and_memory"})


class Mode(Enum):
    INIT = "init"
    WAIT_COOL = "wait_cool"
    HEATING = "heating"
    LASER_STABILIZING = "laser_stabilizing"
    SCANNING = "scanning"
    STORING = "storing"
    FAULT_HOLD = "fault_hold"


class Gate(Enum):
    PROCEED = "proceed"
    WAIT_COOL = "wait_cool"
    HEAT = "heat"


def thermal_gate(housing_temp_c: float) -> Gate:
    """Admission decision for laser operation: 20..30 C inclusive."""
    if housing_temp_c > 30.0:
        return Gate.WAIT_COOL
    if housing_temp_c < 20.0:
        return Gate.HEAT
    return Gate.PROCEED


class LaserMonitor:
    """Sliding window of pump-power samples for the stability check.

    Beside the time-ordered samples it keeps the same window's powers in
    ascending order, so the median and both extremes are read off by index.
    """

    def __init__(self, window_s: float = STABILITY_WINDOW_S,
                 threshold: float = STABILITY_THRESHOLD):
        self.window_s = window_s
        self.threshold = threshold
        self.samples: deque[tuple[float, float]] = deque()
        self.sorted_powers: list[float] = []

    def add_sample(self, t_s: float, power_mw: float) -> None:
        self.samples.append((t_s, power_mw))
        insort(self.sorted_powers, power_mw)
        while self.samples and self.samples[0][0] < t_s - self.window_s:
            _, old = self.samples.popleft()
            del self.sorted_powers[bisect_left(self.sorted_powers, old)]

    def clear(self) -> None:
        self.samples.clear()
        self.sorted_powers.clear()

    def ready(self) -> bool:
        if len(self.samples) < 2:
            return False
        return self.samples[-1][0] - self.samples[0][0] >= self.window_s - 1e-9


def laser_stable(monitor: LaserMonitor) -> bool | None:
    """True/False once the window is full; None while samples are missing.

    Stable means no power deviates from the window median by more than
    `threshold` times the median. The largest deviation is at one end of
    the sorted window, because rounded subtraction is monotone; an even
    window's median is the mean of its two middle powers, as np.median
    computes it.
    """
    if not monitor.ready():
        return None
    powers = monitor.sorted_powers
    mid = len(powers) // 2
    med = powers[mid] if len(powers) % 2 else (powers[mid - 1] + powers[mid]) / 2
    if med <= 0:
        return False
    return max(powers[-1] - med, med - powers[0]) / med <= monitor.threshold


def apd_bias_step(
    params: ApdParams,
    measured_amplitude: float,
    setpoint: float,
    current_bias: float,
    integrator: float = 0.0,
) -> tuple[float, float]:
    """One PI iteration of the constant-amplitude bias feedback.

    Returns the new bias (clamped to the supply rails) and the updated
    integrator term. On saturation the integrator is back-calculated to
    the value consistent with the railed output, so neither a dwell at a
    rail nor a large pre-rail transient can wind it up; recovery starts
    on the first step the error points back inside.
    """
    if not params.bias_min_v <= current_bias <= params.bias_max_v:
        raise ValueError(
            f"bias {current_bias} outside [{params.bias_min_v}, {params.bias_max_v}]"
        )
    err = (setpoint - measured_amplitude) / setpoint
    trial = integrator + err
    bias = current_bias + BIAS_KP * err + BIAS_KI * trial
    if bias > params.bias_max_v:
        trial = (params.bias_max_v - current_bias - BIAS_KP * err) / BIAS_KI
        return params.bias_max_v, trial
    if bias < params.bias_min_v:
        trial = (params.bias_min_v - current_bias - BIAS_KP * err) / BIAS_KI
        return params.bias_min_v, trial
    return bias, trial


class ApdBiasLoop:
    """Stateful wrapper of apd_bias_step with rail-fault bookkeeping."""

    def __init__(self, params: ApdParams, setpoint: float = BIAS_SETPOINT,
                 initial_bias: float = 115.0):
        self.params = params
        self.setpoint = setpoint
        self.bias = initial_bias
        self.integrator = 0.0
        self.railed_s = 0.0
        self.fault = False

    def step(self, temp_c: float, dt: float = TICK_S) -> float:
        measured = physics.avalanche_amplitude(self.params, self.bias, temp_c)
        self.bias, self.integrator = apd_bias_step(
            self.params, measured, self.setpoint, self.bias, self.integrator
        )
        railed = (
            self.bias <= self.params.bias_min_v + 1e-9
            or self.bias >= self.params.bias_max_v - 1e-9
        )
        self.railed_s = self.railed_s + dt if railed else 0.0
        self.fault = self.railed_s > BIAS_RAIL_FAULT_S
        return self.bias

    @property
    def railed(self) -> bool:
        return self.railed_s > 0.0


@dataclass
class ScanConfig:
    n_steps: int = 36
    dwell_s: float = 0.45
    settle_s: float = 0.3
    idler_target_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_steps * (self.settle_s + self.dwell_s) >= 30.0:
            raise ValueError("scan would exceed the 30 s collection limit")

    @property
    def step_ms(self) -> int:
        return round(1000 * (self.settle_s + self.dwell_s))


def scan_voltages(config: ScanConfig, cal: LcCalibration) -> list[int]:
    """Integer-millivolt scan table spanning the full calibration range."""
    volts = np.linspace(cal.v_min, cal.v_max, config.n_steps)
    return [int(round(v * 1000)) for v in volts]


def idler_voltage_mv(pair: int, config: ScanConfig, cal: LcCalibration) -> int:
    """Idler LC setting for maximum transmission into the selected detector.

    The two idler detectors sit on opposite ports of the polarizing
    splitter, so the alternate pair analyzes the orthogonal projection.
    """
    target = config.idler_target_rad + (math.pi / 2.0 if pair == PAIR_2_3 else 0.0)
    from .lc_optics import voltage_for_angle

    return int(round(voltage_for_angle(cal, target) * 1000))


@dataclass
class ScanRecord:
    step: int
    lc_voltage_mv: int
    analyzer_angle_rad: float
    counts: CountSample
    pair: int


@dataclass
class OpticalBench:
    """Device bundle seen by the scan routine."""

    source: SourceParams = field(default_factory=SourceParams)
    calibration: LcCalibration = None  # filled in __post_init__
    extinction_ratio: float = 2000.0
    window_s: float = physics.COINCIDENCE_WINDOW_S
    pair: int = PAIR_1_4
    apd_factors: tuple[float, float] = (1.0, 1.0)
    fault_at_step: int | None = None

    def __post_init__(self) -> None:
        if self.calibration is None:
            from .lc_optics import default_calibration

            self.calibration = default_calibration()


def bench_rates(bench: OpticalBench, analyzer_angle_rad: float) -> tuple[float, float, float]:
    """Expected (singles_1, singles_2, coincidence) rates at an analyzer angle.

    The alternate detector pair sees the orthogonal idler projection, which
    flips the sign of the correlation term; the finite-extinction analyzer
    then mixes in a little of the orthogonal rate, compressing the contrast
    by (1 - 2*eps).
    """
    f1, f2 = bench.apd_factors
    theta = analyzer_angle_rad + (math.pi / 2.0 if bench.pair == PAIR_2_3 else 0.0)
    true_par = physics.true_pair_rate(bench.source, theta)
    true_orth = physics.true_pair_rate(bench.source, theta + math.pi / 2.0)
    measured_true = polarization_mixing(true_par, true_orth, bench.extinction_ratio)
    s1 = bench.source.singles_rate_signal_hz * f1
    s2 = bench.source.singles_rate_idler_hz * f2
    coinc = measured_true * f1 * f2 + physics.accidental_rate(s1, s2, bench.window_s)
    return s1, s2, coinc


def run_scan(
    config: ScanConfig, devices: OpticalBench, rng: np.random.Generator
) -> list[ScanRecord]:
    """Execute one synchronous LC scan and return its per-step records.

    Each step commands the next voltage, waits the full settling time, then
    integrates counts for the dwell. A fault mid-scan discards everything:
    the returned list is empty.
    """
    voltages = scan_voltages(config, devices.calibration)
    records: list[ScanRecord] = []
    elapsed = 0.0
    for step, mv in enumerate(voltages):
        if devices.fault_at_step is not None and step == devices.fault_at_step:
            return []
        elapsed += config.settle_s
        angle = angle_from_voltage(devices.calibration, mv / 1000.0)
        rates = bench_rates(devices, angle)
        counts = physics.sample_counts(rates, config.dwell_s, rng)
        elapsed += config.dwell_s
        records.append(ScanRecord(step, mv, angle, counts, devices.pair))
    assert elapsed < 30.0
    return records


@dataclass
class Sensors:
    time_ms: int
    housing_temp_c: float
    laser_power_mw: float
    lc_signal_settled: bool
    lc_idler_settled: bool


@dataclass
class Commands:
    mode: Mode
    laser_on: bool = False
    heater_watts: float = 0.0
    heater_mode: str = "idle"
    lc_signal_mv: int | None = None
    lc_idler_mv: int | None = None
    counting: bool = False
    commit_scan: bool = False
    abort_scan: bool = False
    active_modules: frozenset[str] = IDLE_MODULES
    scan_id: int = 0
    step: int = 0
    pair: int = PAIR_1_4


class FlightController:
    """Tick-stepped autonomous controller.

    Owns no physics: it reads sensors, runs the state machine, and emits
    device commands. The bias loops live here because they are flight
    electronics; their amplitude measurement is the simulated avalanche
    response at the sensed housing temperature.
    """

    def __init__(
        self,
        scan_config: ScanConfig | None = None,
        calibration: LcCalibration | None = None,
        apd_params: ApdParams | None = None,
    ):
        from .lc_optics import default_calibration

        self.config = scan_config or ScanConfig()
        self.calibration = calibration or default_calibration()
        apd = apd_params or ApdParams()
        self.mode = Mode.INIT
        self.pair = PAIR_1_4
        self.scan_id = 1
        self.step_index = 0
        self.dwell_remaining_ms = 0
        self.pending_command = False
        self.voltages = scan_voltages(self.config, self.calibration)
        self.idler_voltages = {
            pair: idler_voltage_mv(pair, self.config, self.calibration)
            for pair in PAIR_CHANNELS
        }
        self.monitor = LaserMonitor()
        self.laser_on = False
        self.heater_watts = 0.0
        self.fault_until_ms: int | None = None
        self.bias_loops = [ApdBiasLoop(apd) for _ in range(4)]
        self.laser_activations: list[tuple[int, float]] = []

    def active_channels(self) -> tuple[int, int]:
        return PAIR_CHANNELS[self.pair]

    def _turn_laser_on(self, sensors: Sensors) -> None:
        self.laser_on = True
        self.monitor.clear()
        self.laser_activations.append((sensors.time_ms, sensors.housing_temp_c))
        self.mode = Mode.LASER_STABILIZING

    def _turn_laser_off(self) -> None:
        self.laser_on = False
        self.monitor.clear()

    def _enter_gate(self, sensors: Sensors) -> None:
        gate = thermal_gate(sensors.housing_temp_c)
        if gate is Gate.PROCEED:
            if not self.laser_on:
                self._turn_laser_on(sensors)
            else:
                self.mode = Mode.LASER_STABILIZING
        elif gate is Gate.HEAT:
            self._turn_laser_off()
            self.mode = Mode.HEATING
        else:
            self._turn_laser_off()
            self.mode = Mode.WAIT_COOL

    def _begin_scan(self, cmd: Commands) -> None:
        self.mode = Mode.SCANNING
        self.step_index = 0
        self.pending_command = True
        self._emit_step_command(cmd)

    def _emit_step_command(self, cmd: Commands) -> None:
        cmd.scan_id = self.scan_id
        cmd.step = self.step_index
        cmd.lc_signal_mv = self.voltages[self.step_index]
        cmd.lc_idler_mv = self.idler_voltages[self.pair]
        self.pending_command = False
        self.dwell_remaining_ms = round(self.config.dwell_s * 1000)

    def tick(self, sensors: Sensors) -> Commands:
        """Advance one 50 ms tick; returns the commands for this tick."""
        cmd = Commands(mode=self.mode, scan_id=0, pair=self.pair)

        if self.laser_on:
            self.monitor.add_sample(sensors.time_ms / 1000.0, sensors.laser_power_mw)

        if self.mode is Mode.INIT:
            self._enter_gate(sensors)

        elif self.mode is Mode.HEATING:
            if thermal_gate(sensors.housing_temp_c) is not Gate.HEAT:
                self._enter_gate(sensors)

        elif self.mode is Mode.WAIT_COOL:
            if thermal_gate(sensors.housing_temp_c) is not Gate.WAIT_COOL:
                self._enter_gate(sensors)

        elif self.mode is Mode.FAULT_HOLD:
            if self.fault_until_ms is not None and sensors.time_ms >= self.fault_until_ms:
                self.fault_until_ms = None
                self._enter_gate(sensors)

        if self.mode is Mode.LASER_STABILIZING:
            if laser_stable(self.monitor):
                self._begin_scan(cmd)

        elif self.mode is Mode.SCANNING:
            stable = laser_stable(self.monitor)
            if stable is False:
                # partial scan is unusable; drop it and hold before retrying.
                # The scan id is burned so the retry never shares one with
                # records already flushed for the aborted attempt.
                cmd.abort_scan = True
                cmd.scan_id = self.scan_id
                self.scan_id += 1
                self._turn_laser_off()
                self.mode = Mode.FAULT_HOLD
                self.fault_until_ms = sensors.time_ms + round(FAULT_HOLD_S * 1000)
            elif self.pending_command:
                self._emit_step_command(cmd)
            elif (
                sensors.lc_signal_settled
                and sensors.lc_idler_settled
                and self.dwell_remaining_ms > 0
            ):
                cmd.scan_id = self.scan_id
                cmd.step = self.step_index
                cmd.counting = True
                self.dwell_remaining_ms -= TICK_MS
                if self.dwell_remaining_ms == 0:
                    self.step_index += 1
                    if self.step_index >= self.config.n_steps:
                        self.mode = Mode.STORING
                    else:
                        self.pending_command = True
            else:
                cmd.scan_id = self.scan_id
                cmd.step = self.step_index

        elif self.mode is Mode.STORING:
            cmd.commit_scan = True
            cmd.scan_id = self.scan_id
            cmd.step = self.config.n_steps - 1
            self.scan_id += 1
            self.pair = PAIR_2_3 if self.pair == PAIR_1_4 else PAIR_1_4
            self._enter_gate(sensors)

        # command synthesis for the state we ended the tick in
        cmd.mode = self.mode
        operating = self.mode in (Mode.LASER_STABILIZING, Mode.SCANNING, Mode.STORING)
        cmd.laser_on = self.laser_on
        cmd.active_modules = OPERATING_MODULES if operating else IDLE_MODULES
        cmd.heater_mode = "operating" if operating else "idle"
        heat_allowed = self.mode in (
            Mode.HEATING, Mode.FAULT_HOLD, Mode.LASER_STABILIZING,
            Mode.SCANNING, Mode.STORING, Mode.INIT,
        )
        if heat_allowed:
            self.heater_watts = thermal_power.heater_command(
                sensors.housing_temp_c, cmd.heater_mode, self.heater_watts
            )
        else:
            self.heater_watts = 0.0
        cmd.heater_watts = self.heater_watts

        if operating:
            for ch in self.active_channels():
                self.bias_loops[ch].step(sensors.housing_temp_c)

        return cmd
