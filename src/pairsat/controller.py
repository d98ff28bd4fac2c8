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
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import physics, thermal_power
from .lc_optics import (CALIBRATION, EXTINCTION_RATIO, SETTLE_TIME_MS, angle_from_voltage,
                        polarization_mixing, voltage_for_angle)
from .physics import ApdParams, SourceParams

TICK_S = 0.05
TICK_MS = 50

# PI gains for the bias loop, volts per unit relative amplitude error per
# iteration. Sized so the loop settles to <1% of setpoint within 50
# iterations against the linear avalanche model (slow pole |z| ~ 0.71).
BIAS_KP = 5.0
BIAS_KI = 1.0
BIAS_SETPOINT = 1.0

STABILITY_WINDOW_S = 10.0
STABILITY_THRESHOLD = 0.05
FAULT_HOLD_S = 30.0

PAIR_1_4 = 0
PAIR_2_3 = 1

# detector channel indices (signal-arm APD, idler-arm APD) per pair
PAIR_CHANNELS = {PAIR_1_4: (0, 3), PAIR_2_3: (1, 2)}


class Mode(Enum):
    INIT = "init"
    WAIT_COOL = "wait_cool"
    HEATING = "heating"
    LASER_STABILIZING = "laser_stabilizing"
    SCANNING = "scanning"
    STORING = "storing"
    FAULT_HOLD = "fault_hold"


# The laser runs in exactly these modes, which power the operating modules.
# Tuples: membership tests identity first, where a set hashes enum members in Python.
OPERATING_MODES = (Mode.LASER_STABILIZING, Mode.SCANNING, Mode.STORING)

# housing temperatures that admit laser operation, inclusive
GATE_MIN_C = 20.0
GATE_MAX_C = 30.0


def thermal_gate(housing_temp_c: float) -> Mode:
    """The mode the thermal gate admits: LASER_STABILIZING from GATE_MIN_C
    to GATE_MAX_C inclusive, HEATING below, WAIT_COOL above."""
    if housing_temp_c > GATE_MAX_C:
        return Mode.WAIT_COOL
    if housing_temp_c < GATE_MIN_C:
        return Mode.HEATING
    return Mode.LASER_STABILIZING


# no power lies in it, and it certifies nothing
EMPTY_BAND = (math.inf, -math.inf)


def band_certifies(lo: float, hi: float, threshold: float) -> bool:
    """Does every window whose powers all lie in [lo, hi] read stable at
    `threshold`, by `laser_stable`'s exact median rule and its rounding?

    It holds when 0 < lo <= hi < 2**1023, threshold >= 0 and
    `2 * (hi - lo) <= min(threshold, 1) * lo`. Proof, with c = min(threshold,
    1) and fl() the rounded operation:

    - fl(c * lo) <= lo, so fl(hi - lo) <= lo / 2; then the real hi - lo is at
      most lo (else it would round to lo or more), so hi <= 2 lo and by
      Sterbenz fl(hi - lo) = hi - lo <= lo / 2.
    - The median lies in [lo, hi]: an odd window's is one of its powers, an
      even one's is fl(fl(a + b) / 2) for a, b in [lo, hi], and rounding is
      monotone with 2 lo and 2 hi representable (hi < 2**1023: the sum
      cannot overflow).
    - Any two floats in [lo, hi] lie within a factor 2 of each other, so
      both `hi_w - med` and `med - lo_w` are exact (Sterbenz), and their
      maximum D is at most hi - lo.
    - Rounding is monotone, so the tested fl(D / med) is at most fl((hi - lo)
      / lo). If fl(c * lo) = 0, then hi = lo and D = 0 <= threshold. If
      c * lo rounds to a normal float, 2 (hi - lo) <= c lo (1 + 2**-53), so
      (hi - lo) / lo < c; if to a nonzero subnormal, fl(c * lo) <= 2 c lo,
      so (hi - lo) / lo <= c. Either way the quotient rounds to at most c,
      and c <= threshold.

    A NaN anywhere, a negative threshold, an empty band and lo <= 0 do not
    certify: `threshold >= 0` matters for a threshold such as -5e-324,
    whose product with a small lo rounds to -0.0.
    """
    return (0.0 < lo <= hi < 2.0**1023 and threshold >= 0.0
            and 2.0 * (hi - lo) <= min(threshold, 1.0) * lo)


def band_around(median: float, threshold: float) -> tuple[float, float]:
    """The band `laser_stable` centres on a stable window's median: a
    half-width of min(threshold, 1) / 8 of it, a quarter of what
    `band_certifies` admits, so that the noise of later powers stays inside
    and the band certifies with room for its rounding."""
    half = min(threshold, 1.0) / 8.0 * median
    return median - half, median + half


class LaserMonitor:
    """Sliding window of pump-power samples for the stability check, with a
    band certificate that spares the median while the power holds still.

    The window is full when its oldest sample lies one window before the
    newest, to 1e-9, so that a span of exactly one window reads full however
    its subtraction rounds. Rounding of `t_s - window_s` can also drop a
    sample that lies exactly one window back; the window then fills a
    sample later.

    That one rule is enough in flight: the controller samples every
    laser-on tick, on the exact 50 ms grid, with no gap since the last
    `clear`, and the window is a whole number of ticks. So once a sample
    has been dropped, the oldest one kept lies one window back. With sample
    times off such a grid, the kept samples can span less than a window
    after a drop, and the window then does not read full.

    `band` is an interval of powers, `EMPTY_BAND` at first, and
    `outside_t` a time no later sample lies outside it: each sample
    outside the band moves it to the sample's time, `clear` resets it. With
    sample times that never decrease, `outside_t < oldest kept time` means
    every kept power lies in the band, and a band that `band_certifies`
    then makes the window stable with no median (`laser_stable`). A stable
    exact reading re-centres the band on its median (`band_around`). The
    band is never needed for exactness: any band that certifies is sound,
    and a later `outside_t` than the true one only sends more readings to
    the median.

    It is the one flight timer still on float seconds: the LC settle timer
    counts whole milliseconds. The engine's operating stretch
    (`SimulationEngine._operating_stretch`) inlines `add_sample`, `ready`
    and the band test of `laser_stable` for every laser-on tick, and calls
    `laser_stable` itself for a median. In SCANNING, while every kept power
    lies in a band that certifies, it appends samples but puts the trim off
    until the window is next read or the stretch ends; with times that
    increase, one trim at the newest horizon keeps what a trim per sample
    would. A change to these rules changes that copy too.
    """

    def __init__(self, window_s: float = STABILITY_WINDOW_S,
                 threshold: float = STABILITY_THRESHOLD):
        self.window_s = window_s
        self.threshold = threshold
        self.samples: deque[tuple[float, float]] = deque()
        self.band = EMPTY_BAND
        self.outside_t = -math.inf

    def add_sample(self, t_s: float, power_mw: float) -> None:
        self.samples.append((t_s, power_mw))
        lo, hi = self.band
        if not lo <= power_mw <= hi:
            self.outside_t = t_s
        while self.samples and self.samples[0][0] < t_s - self.window_s:
            self.samples.popleft()

    def clear(self) -> None:
        self.samples.clear()
        self.outside_t = -math.inf

    def ready(self) -> bool:
        samples = self.samples
        return len(samples) >= 2 and samples[-1][0] - samples[0][0] >= self.window_s - 1e-9


def laser_stable(monitor: LaserMonitor) -> bool | None:
    """True/False once the window is full; None while samples are missing.

    Stable means no power deviates from the window median by more than
    `threshold` times the median. While every kept power lies in a band
    that `band_certifies`, that holds with no median. Otherwise the median
    is read from the sorted window: the largest deviation is at one end of
    it, because rounded subtraction is monotone, and an even window's
    median is the mean of its two middle powers, as np.median computes it.
    A stable exact reading re-centres the band on that median and finds
    the newest kept power outside it.
    """
    if not monitor.ready():
        return None
    samples = monitor.samples
    if monitor.outside_t < samples[0][0] and band_certifies(*monitor.band, monitor.threshold):
        return True
    powers = sorted(p for _, p in samples)
    mid = len(powers) // 2
    med = powers[mid] if len(powers) % 2 else (powers[mid - 1] + powers[mid]) / 2
    if med <= 0:
        return False
    stable = max(powers[-1] - med, med - powers[0]) / med <= monitor.threshold
    if stable:
        monitor.band = lo, hi = band_around(med, monitor.threshold)
        monitor.outside_t = max((t for t, p in samples if not lo <= p <= hi),
                                default=-math.inf)
    return stable


def apd_bias_step(
    params: ApdParams,
    measured_amplitude: float,
    setpoint: float,
    current_bias: float,
    integrator: float,
) -> tuple[float, float]:
    """One PI iteration of the constant-amplitude bias feedback.

    Returns the new bias (clamped to the supply rails) and the updated
    integrator term. On saturation the integrator resets to 0, so neither
    a dwell at a rail nor a large pre-rail transient can wind it up; the
    loop leaves the rail on the first step its error points back inside.
    """
    if not params.bias_min_v <= current_bias <= params.bias_max_v:
        raise ValueError(
            f"bias {current_bias} outside [{params.bias_min_v}, {params.bias_max_v}]"
        )
    err = (setpoint - measured_amplitude) / setpoint
    trial = integrator + err
    bias = current_bias + BIAS_KP * err + BIAS_KI * trial
    if bias > params.bias_max_v:
        return params.bias_max_v, 0.0
    if bias < params.bias_min_v:
        return params.bias_min_v, 0.0
    return bias, trial


class ApdBiasLoop:
    """Stateful wrapper of apd_bias_step, servoing to `BIAS_SETPOINT` from
    115 V; `railed` tells whether the last step left the bias at a supply
    rail.

    The engine's operating stretch (`SimulationEngine._operating_stretch`)
    inlines `step`, with `avalanche_amplitude` and `apd_bias_step` but not
    their range checks, which no bias it meets can fail, for the signal
    loop. When the two active loops are twins, on one `ApdParams` object
    with the same bias and integrator bit for bit, the idler loop copies
    the signal loop's state; otherwise it calls `step`. A change here
    changes that copy too.
    """

    def __init__(self, params: ApdParams):
        self.params = params
        self.bias = 115.0
        self.integrator = 0.0
        self.railed = False

    def step(self, temp_c: float) -> float:
        measured = physics.avalanche_amplitude(self.params, self.bias, temp_c)
        self.bias, self.integrator = apd_bias_step(
            self.params, measured, BIAS_SETPOINT, self.bias, self.integrator
        )
        self.railed = (
            self.bias <= self.params.bias_min_v + 1e-9
            or self.bias >= self.params.bias_max_v - 1e-9
        )
        return self.bias


@dataclass(frozen=True)
class ScanConfig:
    n_steps: int = 36
    dwell_s: float = 0.45

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_steps * (SETTLE_TIME_MS / 1000 + self.dwell_s) >= 30.0:
            raise ValueError("scan would exceed the 30 s collection limit")
        # the controller counts a dwell down in whole ticks from its milliseconds
        dwell_ms = round(self.dwell_s * 1000) if math.isfinite(self.dwell_s) else 0
        if dwell_ms <= 0 or dwell_ms % TICK_MS:
            raise ValueError(f"dwell_s {self.dwell_s} is not a positive whole number of "
                             f"{TICK_MS} ms ticks")


def scan_voltages(config: ScanConfig) -> list[int]:
    """Integer-millivolt scan table spanning the flight LC curve's range."""
    volts = np.linspace(CALIBRATION.v_min, CALIBRATION.v_max, config.n_steps)
    return [int(round(v * 1000)) for v in volts]


# the flight scan, its dwell in the whole milliseconds the controller counts
# down, and its signal LC drive table, in mV
FLIGHT_SCAN = ScanConfig()
DWELL_MS = round(FLIGHT_SCAN.dwell_s * 1000)
SCAN_VOLTAGES_MV = tuple(scan_voltages(FLIGHT_SCAN))
# the idler LC setting in mV, indexed by pair, for maximum transmission into
# the selected detector: the two idler detectors sit on opposite ports of the
# polarizing splitter, so the alternate pair analyzes the orthogonal projection
IDLER_VOLTAGES_MV = tuple(
    int(round(voltage_for_angle(CALIBRATION, math.pi / 2.0 if pair == PAIR_2_3 else 0.0) * 1000))
    for pair in (PAIR_1_4, PAIR_2_3))


def analyzer_pair_rate(source: SourceParams, pair: int, analyzer_angle_rad: float) -> float:
    """True-pair rate behind the analyzer at an angle, before detection.

    The alternate detector pair sees the orthogonal idler projection, which
    flips the sign of the correlation term; the finite-extinction analyzer
    then mixes in a little of the orthogonal rate, compressing the contrast
    by (1 - 2*eps).
    """
    theta = analyzer_angle_rad + (math.pi / 2.0 if pair == PAIR_2_3 else 0.0)
    true_par = physics.true_pair_rate(source, theta)
    true_orth = physics.true_pair_rate(source, theta + math.pi / 2.0)
    return polarization_mixing(true_par, true_orth, EXTINCTION_RATIO)


def bench_rates(source: SourceParams, pair: int, apd_factors: tuple[float, float],
                analyzer_angle_rad: float) -> tuple[float, float, float]:
    """Expected (singles_1, singles_2, coincidence) rates of `pair` at an
    analyzer angle, each detector scaled by its efficiency factor in
    `apd_factors` (signal arm, idler arm)."""
    f1, f2 = apd_factors
    s1 = source.singles_rate_signal_hz * f1
    s2 = source.singles_rate_idler_hz * f2
    coinc = (analyzer_pair_rate(source, pair, analyzer_angle_rad) * f1 * f2
             + physics.accidental_rate(s1, s2, physics.COINCIDENCE_WINDOW_S))
    return s1, s2, coinc


def run_scan(
    config: ScanConfig, source: SourceParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Execute one synchronous LC scan of pair 1&4 at unit detector factors.

    Each step commands the next voltage, waits the full settling time, then
    integrates counts for the dwell, drawing in step order. Returns the step
    angles and an (n_steps, 3) int64 array of (singles_1, singles_2,
    coincidences) counts: `ScanData(angles, config.dwell_s, *counts.T)`.
    """
    angles = angle_from_voltage(CALIBRATION, np.array(scan_voltages(config)) / 1000.0)
    counts = np.array([
        physics.sample_counts(bench_rates(source, PAIR_1_4, (1.0, 1.0), angle), config.dwell_s, rng)
        for angle in angles.tolist()], dtype=np.int64)
    return angles, counts


@dataclass(slots=True)
class Sensors:
    time_ms: int
    housing_temp_c: float
    laser_power_mw: float
    lc_settled: bool  # both LCs: they are always commanded together


@dataclass(slots=True)
class Commands:
    """One tick's commands. The laser follows from the mode the tick ends
    in, and the power ledger (`thermal_power`) from the laser."""

    mode: Mode
    heater_watts: float = 0.0
    # a step command's signal LC voltage, from `SCAN_VOLTAGES_MV`; the idler
    # LC takes the pair's `IDLER_VOLTAGES_MV` with it
    lc_signal_mv: int | None = None
    counting: bool = False
    commit_scan: bool = False
    abort_scan: bool = False
    scan_id: int = 0
    step: int = 0
    pair: int = PAIR_1_4

    @property
    def laser_on(self) -> bool:
        return self.mode in OPERATING_MODES


class FlightController:
    """Tick-stepped autonomous controller.

    Owns no physics: it reads sensors, runs the state machine, and emits
    device commands. The bias loops live here because they are flight
    electronics; their amplitude measurement is the simulated avalanche
    response at the sensed housing temperature.
    """

    def __init__(self):
        apd = ApdParams()
        self.mode = Mode.INIT
        self.pair = PAIR_1_4
        self.scan_id = 1
        self.step_index = 0
        self.dwell_remaining_ms = 0
        self.pending_command = False
        self.monitor = LaserMonitor()
        self.heater_watts = 0.0
        self.fault_until_ms: int | None = None
        self.bias_loops = [ApdBiasLoop(apd) for _ in range(4)]
        self.laser_activations: list[tuple[int, float]] = []

    @property
    def laser_on(self) -> bool:
        """The laser runs in exactly the operating modes."""
        return self.mode in OPERATING_MODES

    def active_channels(self) -> tuple[int, int]:
        return PAIR_CHANNELS[self.pair]

    def hold(self) -> tuple[float, bool] | None:
        """`(bound_c, below)`: every tick whose sensed housing temperature
        is below `bound_c` (above it if not `below`) returns
        `Commands(mode, heater_watts, pair=pair)` and changes no field, at
        any time. HEATING holds below the gate with the heater on, WAIT_COOL
        above it with the heater off; the laser is off in both. None in any
        other mode or heater state: the engine decides those ticks one at a
        time, a fault hold's among them.
        """
        if self.mode is Mode.HEATING and self.heater_watts == thermal_power.HEATER_CAP_IDLE_W:
            return GATE_MIN_C, True
        if self.mode is Mode.WAIT_COOL and self.heater_watts == 0.0:
            return GATE_MAX_C, False
        return None

    def _enter_gate(self, sensors: Sensors) -> None:
        """Leave for the mode the thermal gate admits, unless it admits the
        mode already in. The laser's state is read from the mode left, so
        this runs before the mode changes: from STORING the laser stays on
        and its monitor window is kept."""
        mode = thermal_gate(sensors.housing_temp_c)
        if mode is self.mode:
            return
        if mode is not Mode.LASER_STABILIZING:  # the laser is or turns off
            self.monitor.clear()
        elif not self.laser_on:  # the laser turns on
            self.monitor.clear()
            self.laser_activations.append((sensors.time_ms, sensors.housing_temp_c))
        self.mode = mode

    def _begin_scan(self, cmd: Commands) -> None:
        self.mode = Mode.SCANNING
        self.step_index = 0
        self._emit_step_command(cmd)

    def _emit_step_command(self, cmd: Commands) -> None:
        cmd.scan_id = self.scan_id
        cmd.step = self.step_index
        cmd.lc_signal_mv = SCAN_VOLTAGES_MV[self.step_index]
        self.pending_command = False
        self.dwell_remaining_ms = DWELL_MS

    def tick(self, sensors: Sensors) -> Commands:
        """Advance one 50 ms tick; returns the commands for this tick."""
        if self.laser_on:
            self.monitor.add_sample(sensors.time_ms / 1000.0, sensors.laser_power_mw)
        return self.decide(sensors)

    def decide(self, sensors: Sensors) -> Commands:
        """The rest of a tick whose laser reading the monitor already holds:
        run the state machine, step the active bias loops, and return the
        commands. With the laser off there is no reading, and `tick` is this
        call. The engine calls it on every tick it decides: the laser-on
        ticks its operating stretch hands back, and the laser-off ticks no
        `hold` admits, each tick of a fault hold among them. INIT, HEATING
        and WAIT_COOL are left once the gate admits another mode (never
        INIT: it is left on the first tick), FAULT_HOLD on its first tick
        at or after `fault_until_ms`."""
        cmd = Commands(mode=self.mode, scan_id=0, pair=self.pair)

        if self.mode in (Mode.INIT, Mode.HEATING, Mode.WAIT_COOL):
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
                self.monitor.clear()  # the laser turns off
                self.mode = Mode.FAULT_HOLD
                self.fault_until_ms = sensors.time_ms + round(FAULT_HOLD_S * 1000)
            elif self.pending_command:
                self._emit_step_command(cmd)
            elif sensors.lc_settled and self.dwell_remaining_ms > 0:
                cmd.scan_id = self.scan_id
                cmd.step = self.step_index
                cmd.counting = True
                self.dwell_remaining_ms -= TICK_MS
                if self.dwell_remaining_ms == 0:
                    self.step_index += 1
                    if self.step_index >= FLIGHT_SCAN.n_steps:
                        self.mode = Mode.STORING
                    else:
                        self.pending_command = True
            else:
                cmd.scan_id = self.scan_id
                cmd.step = self.step_index

        elif self.mode is Mode.STORING:
            cmd.commit_scan = True
            cmd.scan_id = self.scan_id
            cmd.step = FLIGHT_SCAN.n_steps - 1
            self.scan_id += 1
            self.pair = PAIR_2_3 if self.pair == PAIR_1_4 else PAIR_1_4
            self._enter_gate(sensors)

        # command synthesis for the state we ended the tick in
        cmd.mode = self.mode
        if self.mode is not Mode.WAIT_COOL:
            self.heater_watts = thermal_power.heater_command(
                sensors.housing_temp_c, cmd.laser_on, self.heater_watts
            )
        else:
            self.heater_watts = 0.0
        cmd.heater_watts = self.heater_watts

        if cmd.laser_on:
            for ch in self.active_channels():
                self.bias_loops[ch].step(sensors.housing_temp_c)

        return cmd
