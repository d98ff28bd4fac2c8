"""Environment profiles and the end-to-end simulation engine.

A scenario is an environment time series (temperature, pressure, altitude,
acceleration) plus source ground truth and a seed; its profile must cover
the run, from 0 s to its end. With a start temperature for the insulated
package (`initial_package_c`), the housing sits in the package node, whose
heat capacity, conductance and payload heat are module constants
(`package_step`); without one, in the profile's air. The package never
depends on the housing, so `boundary_temps` steps it once per run. The
engine advances the flight controller at a fixed 50 ms tick against device
models and records 8 Hz telemetry into redundant flash, returning the flash
image and a run summary. Identical scenarios, seed included, produce
byte-identical flash output.

The operating stretch runs every laser-on tick but those the controller
decides. It repeats the arithmetic of a tick through the controller and the
device models, in its order, on local variables: it draws the laser reading
and inlines the laser monitor's window and band test (the median is taken
only by `laser_stable`, while a power outside the band is in the window),
the SCANNING branch of the controller, the heater rule, the signal bias
loop's step, which needs no range test (the idler loop copies it when the
two are twins, and steps itself otherwise), the counts and the LC pair's
settle timer, and in LASER_STABILIZING runs the same tick with the scan
steps switched off. In SCANNING it trims the monitor's window only while a
power outside the band is in it, and on the way out. It hands back a
stable window before a scan, an unstable one during it and a commit. The
per-tick path decides those ticks and every laser-off tick that the
controller does not hold, each tick of a fault hold among them; it draws no
random number and raises if a tick would count. `_advance` then runs the
decided tick and every later tick that `FlightController.hold` admits:
heating below the gate and waiting to cool above it. A held tick steps only
the housing node: the hold iterates over the boundary series, beside a
cycle of which ticks open a record period (`NEXT_STARTS_PERIOD`), so a held
tick tests its temperature bound, and only a tick that opens a period tests
whether the run has reached its end. The run's generator is built on the
laser's first draw. The tests compare every run with a reference engine
that steps each tick through the controller and the device models, with no
cache, stretch, hold or block, and require the same flash and summary bit
for bit.

The recorder is columnar. Each 125 ms period logs its raw values into a
pending block of at most `PENDING_RECORDS` periods: its context (scan id,
step, pair, LC mV), summed counts and flags, and the unrounded housing
temperature, laser power and two biases sampled at the top of the next
period. `_close_period` logs one period at a time; a hold logs one row for
all the periods it holds, which differ only in temperature.
A full block, and the last one, becomes a `RECORD_DTYPE` table from its
logged rows: each is converted column by column (`telemetry.fixed_point`)
and passes the one range check (`telemetry.table_from_rows`) once, however
many periods it stands for. The 32-byte rows are then repeated by their
counts, and each record gets only its own time, clamped temperature
(`telemetry.centi_c`) and wrap flag. The block is written with one
`telemetry.write_redundant`. Each block's counting and commit rows are kept;
after the last record the flight scans are grouped once through the ground
grouping (`analysis.scan_data_from_records`) and fitted in one batch
(`analysis.fit_sinusoids`).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, cycle, islice

import numpy as np

from . import analysis, controller, physics, telemetry, thermal_power
from .controller import (BIAS_KI, BIAS_KP, BIAS_SETPOINT, DWELL_MS, EMPTY_BAND, FLIGHT_SCAN,
                         IDLER_VOLTAGES_MV, PAIR_CHANNELS, SCAN_VOLTAGES_MV, Commands,
                         FlightController, Mode, Sensors, band_certifies, laser_stable)
from .lc_optics import CALIBRATION, SETTLE_TIME_MS, LcState, MonotoneCubic, angle_from_voltage, \
    command_voltage, step_settle
from .physics import SourceParams, detection_efficiency, reference_efficiency
from .telemetry import FLAG_BIAS_RAILED, FLAG_COUNTING, FLAG_HEATER_ON, FLAG_LASER_ON, \
    FlashImage
from .thermal_power import (HEATER_CAP_OPERATING_W, HEATER_OFF_ABOVE_C, HEATER_ON_BELOW_C,
                            HOUSING_CONDUCTANCE_W_PER_C, HOUSING_HEAT_CAPACITY_J_PER_C)

TICK_MS = controller.TICK_MS
TICK_S = controller.TICK_S
RECORD_PERIOD_MS = telemetry.RECORD_PERIOD_MS
# records held in the pending block before one batched flash write: 512 s
# of telemetry
PENDING_RECORDS = 4096
# a logged row's values: the context (scan id, step, pair, two LC mV), three
# counts, flags, laser power and two biases
ROW_FIELDS = 12
# ticks and periods line up again every PERIOD_TICKS ticks; entry j says
# whether tick j + 1, mod PERIOD_TICKS, opens a record period
PERIOD_TICKS = math.lcm(TICK_MS, RECORD_PERIOD_MS) // TICK_MS
NEXT_STARTS_PERIOD = tuple((j + 1) * TICK_MS % RECORD_PERIOD_MS < TICK_MS
                           for j in range(PERIOD_TICKS))

# the relative standard deviation of the pump laser's power noise about its
# nominal drive, `SourceParams.pump_power_mw`
LASER_NOISE = 0.0003

SEA_LEVEL_PRESSURE_MBAR = 1013.25
ATMOSPHERE_SCALE_HEIGHT_M = 7000.0

LEO_TEMP_MEAN_C = 7.5
LEO_TEMP_AMPLITUDE_C = 12.5
ORBIT_PERIOD_S = 6000.0


@dataclass
class EnvironmentProfile:
    """Time-ordered environment samples, linearly interpolated between points."""

    t_s: np.ndarray
    temp_c: np.ndarray
    pressure_mbar: np.ndarray
    altitude_m: np.ndarray
    accel_g: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t_s)
        for name in ("temp_c", "pressure_mbar", "altitude_m", "accel_g"):
            if len(getattr(self, name)) != n:
                raise ValueError("profile arrays must have equal length")
        if n < 2:
            raise ValueError("profile needs at least 2 samples")
        for name in ("t_s", "temp_c", "pressure_mbar", "altitude_m", "accel_g"):
            column = np.asarray(getattr(self, name), dtype=float)
            bad = ~np.isfinite(column)
            if bad.any():
                raise ValueError(f"profile {name} must be finite, got {column[bad][0]}")
        if np.any(np.diff(self.t_s) <= 0):
            raise ValueError("profile times must be strictly increasing")
        if np.any(self.pressure_mbar < 0) or np.any(self.accel_g < 0):
            raise ValueError("pressure and acceleration must be nonnegative")

    @property
    def duration_s(self) -> float:
        return float(self.t_s[-1])


def lab_profile(duration_s: float) -> EnvironmentProfile:
    """Constant bench conditions: 22 C, sea-level pressure, 1 g."""
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration_s} s")
    t = np.array([0.0, duration_s])
    return EnvironmentProfile(
        t_s=t,
        temp_c=np.full(2, 22.0),
        pressure_mbar=np.full(2, SEA_LEVEL_PRESSURE_MBAR),
        altitude_m=np.zeros(2),
        accel_g=np.ones(2),
    )


def leo_cycle_profile(duration_s: float, phase_s: float = 0.0) -> EnvironmentProfile:
    """Sinusoidal orbit thermal cycle, -5..20 C over 100 minutes.

    With the default phase the cycle starts at its 20 C peak; phase_s=3000
    starts at the -5 C minimum.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration_s} s")
    t = np.arange(0.0, duration_s + 10.0, 10.0)
    temp = LEO_TEMP_MEAN_C + LEO_TEMP_AMPLITUDE_C * np.cos(
        2.0 * math.pi * (t + phase_s) / ORBIT_PERIOD_S
    )
    return EnvironmentProfile(
        t_s=t,
        temp_c=temp,
        pressure_mbar=np.zeros_like(t),
        altitude_m=np.full_like(t, 400e3),
        accel_g=np.zeros_like(t),
    )


def thermal_vac_profile(duration_s: float) -> EnvironmentProfile:
    """Qualification chamber cycle: -10..40 C, 100 min period, hard vacuum."""
    if not 86400.0 <= duration_s < math.inf:
        raise ValueError(f"qualification run must cover at least 24 h, got {duration_s} s")
    t = np.arange(0.0, duration_s + 10.0, 10.0)
    temp = 15.0 + 25.0 * np.cos(2.0 * math.pi * t / ORBIT_PERIOD_S)
    return EnvironmentProfile(
        t_s=t,
        temp_c=temp,
        pressure_mbar=np.full_like(t, 1e-7),
        altitude_m=np.zeros_like(t),
        accel_g=np.ones_like(t),
    )


# The thermal node of the insulated payload package around the housing. For
# the balloon flight the published boundary condition is the internal
# package temperature, so the profile's air temperature is reverse-shaped
# through this node and the simulation re-integrates it forward.
PACKAGE_HEAT_CAPACITY_J_PER_C = 1500.0
PACKAGE_CONDUCTANCE_W_PER_C = 0.4
PACKAGE_PAYLOAD_W = 1.3


def package_step(temp_c: float, air_temp_c: float, dt: float) -> float:
    """The package temperature after one explicit Euler step of `dt`."""
    flow = PACKAGE_PAYLOAD_W + PACKAGE_CONDUCTANCE_W_PER_C * (air_temp_c - temp_c)
    return temp_c + dt * flow / PACKAGE_HEAT_CAPACITY_J_PER_C


BALLOON_GROUND_S = 900.0  # pre-release activation period
BALLOON_ASCENT_RATE_M_S = 5.0
BALLOON_CEILING_M = 35500.0
BALLOON_GROUND_ALT_M = 500.0
BURST_ACCEL_G = 20.0
LANDING_ACCEL_G = 23.0

# internal package temperature control points for the flight (t_s, temp_c):
# mild ground, jet-stream dip on ascent, solar recovery at ceiling, second
# dip during the fast descent, recovery after landing
_BALLOON_PACKAGE_KNOTS = [
    (0.0, 12.0),
    (900.0, 12.0),
    (2500.0, 2.0),
    (3200.0, 1.2),
    (4000.0, 3.0),
    (6000.0, 7.5),
    (7900.0, 8.0),
    (8600.0, 2.5),
    (9100.0, 4.0),
]


def _balloon_descent(t_burst: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the post-burst descent, 90 m/s free fall into a <10 m/s
    parachute-limited touchdown."""
    ts = [t_burst]
    hs = [BALLOON_CEILING_M]
    h = BALLOON_CEILING_M
    t = t_burst
    dt = 1.0
    while h > BALLOON_GROUND_ALT_M:
        v = min(90.0, 9.5 * math.exp(h / 14000.0))
        h = max(BALLOON_GROUND_ALT_M, h - v * dt)
        t += dt
        ts.append(t)
        hs.append(h)
    return np.array(ts), np.array(hs)


def balloon_flight_times() -> tuple[float, float, float]:
    """(release, burst, landing) times in seconds."""
    t_burst = BALLOON_GROUND_S + (BALLOON_CEILING_M - BALLOON_GROUND_ALT_M) / BALLOON_ASCENT_RATE_M_S
    ts, _ = _balloon_descent(t_burst)
    return BALLOON_GROUND_S, t_burst, float(ts[-1])


def balloon_profile() -> EnvironmentProfile:
    """Full stratospheric flight profile.

    Altitude: ground hold, 5 m/s ascent to the 35.5 km ceiling, burst,
    drag-limited descent, landing plus a short ground tail. Acceleration
    is 1 g with spike samples of 20 g at burst and 23 g at landing.
    Pressure follows an exponential atmosphere. The air temperature is
    constructed so that the package node (`package_step`) reproduces the
    internal temperature control points exactly.
    """
    t_release, t_burst, t_land = balloon_flight_times()
    t_end = t_land + 400.0

    knots = list(_BALLOON_PACKAGE_KNOTS)
    knots.append((t_land, 5.0))
    knots.append((t_end, 9.0))
    pk_t = np.array([k[0] for k in knots])
    pk_T = np.array([k[1] for k in knots])
    package_curve = MonotoneCubic(pk_t, pk_T)
    package_slope = package_curve.derivative()

    base = np.arange(0.0, t_end + 10.0, 10.0)
    events = np.array([
        t_release - 1.0, t_release, t_release + 1.0,
        t_burst - 1.0, t_burst, t_burst + 1.0,
        t_land - 1.0, t_land, t_land + 1.0,
    ])
    t = np.unique(np.concatenate([base, events, [t_end]]))
    t = t[t <= t_end]

    # altitude piecewise: ground hold and ascent, then the descent
    desc_t, desc_h = _balloon_descent(t_burst)
    alt = BALLOON_GROUND_ALT_M + BALLOON_ASCENT_RATE_M_S * np.maximum(t - t_release, 0.0)
    alt = np.where(t <= t_burst, alt, np.interp(t, desc_t, desc_h))
    alt = np.minimum(alt, BALLOON_CEILING_M)

    pressure = SEA_LEVEL_PRESSURE_MBAR * np.exp(-alt / ATMOSPHERE_SCALE_HEIGHT_M)

    accel = np.ones_like(t)
    accel[np.isclose(t, t_release)] = 1.5  # release bump
    accel[np.isclose(t, t_burst)] = BURST_ACCEL_G
    accel[np.isclose(t, t_land)] = LANDING_ACCEL_G

    # reverse-shape the air temperature through the package node
    T_pkg = package_curve(t)
    dT_pkg = package_slope(t)
    air = T_pkg + (PACKAGE_HEAT_CAPACITY_J_PER_C * dT_pkg - PACKAGE_PAYLOAD_W) \
        / PACKAGE_CONDUCTANCE_W_PER_C

    return EnvironmentProfile(
        t_s=t,
        temp_c=air,
        pressure_mbar=pressure,
        altitude_m=alt,
        accel_g=accel,
    )


def load_profile_csv(path: str) -> EnvironmentProfile:
    """Load a profile from CSV with header t_s,temp_c,pressure_mbar,altitude_m,accel_g."""
    cols: list[list[float]] = [[], [], [], [], []]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty profile file")
        expect = ["t_s", "temp_c", "pressure_mbar", "altitude_m", "accel_g"]
        if [h.strip() for h in header] != expect:
            raise ValueError(f"line 1: header must be {','.join(expect)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vals = [float(x) for x in row]
                if len(vals) != 5:
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {row!r}") from None
            if cols[0] and vals[0] <= cols[0][-1]:
                raise ValueError(f"line {lineno}: time not strictly increasing")
            for c, v in zip(cols, vals):
                c.append(v)
    return EnvironmentProfile(*(np.array(c) for c in cols))


def save_profile_csv(profile: EnvironmentProfile, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "temp_c", "pressure_mbar", "altitude_m", "accel_g"])
        for i in range(len(profile.t_s)):
            w.writerow([
                repr(float(profile.t_s[i])),
                repr(float(profile.temp_c[i])),
                repr(float(profile.pressure_mbar[i])),
                repr(float(profile.altitude_m[i])),
                repr(float(profile.accel_g[i])),
            ])


@dataclass
class Scenario:
    name: str
    profile: EnvironmentProfile
    duration_s: float
    seed: int = 1
    source: SourceParams = field(default_factory=SourceParams)
    initial_housing_c: float = 22.0
    # the package node's start temperature; None: no package node
    initial_package_c: float | None = None
    laser_dips: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration must be finite and positive, got {self.duration_s} s")
        if self.duration_s > self.profile.duration_s:
            raise ValueError(f"duration {self.duration_s} s runs past the profile, "
                             f"which ends at {self.profile.duration_s} s")
        if self.profile.t_s[0] > 0:
            raise ValueError(f"profile starts at {self.profile.t_s[0]} s, after the run at 0 s")


def boundary_temps(scenario: Scenario,
                   air_c: np.ndarray) -> tuple[memoryview, float | None, float | None]:
    """Per tick of a run with air temperature `air_c`, the temperature the
    housing exchanges heat with at the top of the tick, as a memoryview (an
    index gives a Python float; no float object is kept per tick); and the
    package's lowest and highest temperature, None without a package node.

    Without one that is the air. With one it is the package, started at
    `initial_package_c` and stepped once a tick by `package_step`; the
    extremes count the last step, and `min` and `max` keep the first of
    equal values (-0.0, 0.0), as a running `<` does.
    """
    if scenario.initial_package_c is None:
        return memoryview(air_c), None, None
    temps = array("d", [scenario.initial_package_c])
    for air in memoryview(air_c):
        temps.append(package_step(temps[-1], air, TICK_S))
    return memoryview(temps[:-1]), min(temps), max(temps)


def make_scenario(
    name: str,
    duration_s: float | None = None,
    seed: int = 1,
    profile_path: str | None = None,
) -> Scenario:
    """Construct one of the canonical scenarios (or a custom one from CSV)."""
    name = name.lower()
    if name == "lab":
        dur = 480.0 if duration_s is None else duration_s
        return Scenario("lab", lab_profile(dur), dur, seed, initial_housing_c=22.0)
    if name == "leo":
        dur = 6000.0 if duration_s is None else duration_s
        return Scenario(
            "leo",
            leo_cycle_profile(dur, phase_s=ORBIT_PERIOD_S / 2.0),
            dur,
            seed,
            initial_housing_c=-5.0,
        )
    if name == "thermalvac":
        dur = 86400.0 if duration_s is None else duration_s
        return Scenario(
            "thermalvac",
            thermal_vac_profile(dur),
            dur,
            seed,
            initial_housing_c=20.0,
        )
    if name == "balloon":
        profile = balloon_profile()
        dur = profile.duration_s if duration_s is None else duration_s
        return Scenario(
            "balloon",
            profile,
            dur,
            seed,
            source=SourceParams(true_visibility=0.93),
            initial_housing_c=12.0,
            initial_package_c=float(_BALLOON_PACKAGE_KNOTS[0][1]),
        )
    if name == "custom":
        if not profile_path:
            raise ValueError("custom scenario needs a profile CSV")
        profile = load_profile_csv(profile_path)
        dur = profile.duration_s if duration_s is None else duration_s
        return Scenario("custom", profile, dur, seed)
    raise ValueError(f"unknown scenario {name!r}")


@dataclass
class ScanSummary:
    scan_id: int
    pair: int
    t_start_ms: int
    t_commit_ms: int
    visibility: float
    phase_rad: float
    rms_residual: float
    converged: bool
    altitude_m: float
    settle_ms_values: tuple[int, ...]


@dataclass
class RunSummary:
    scenario: str
    seed: int
    duration_s: float
    scans: list[ScanSummary]
    aborted_scans: int
    records_written: int
    max_total_power_w: float
    housing_temp_min_c: float
    housing_temp_max_c: float
    package_temp_min_c: float | None
    package_temp_max_c: float | None
    mode_history: list[tuple[int, str]]
    laser_activations: list[tuple[int, float]]

    @property
    def visibilities(self) -> list[float]:
        return [s.visibility for s in self.scans]


def _same_float(a: float, b: float) -> bool:
    """Are `a` and `b` the same float, bit for bit? 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class SimulationEngine:
    """Deterministic 50 ms tick loop wiring controller, devices, and storage."""

    def __init__(self, scenario: Scenario):
        # checked here, where every run passes, as a scenario's fields can be
        # set after it is built: a NaN would fail only at the first block write
        for name in ("initial_housing_c", "initial_package_c"):
            temp_c = getattr(scenario, name)
            if temp_c is not None and not math.isfinite(temp_c):
                raise ValueError(f"{name} must be finite, got {temp_c}")
        # numpy refuses it only at the laser's first draw, and a run whose
        # laser stays off never draws
        if not isinstance(scenario.seed, (int, np.integer)) or scenario.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {scenario.seed!r}")
        self.scenario = scenario
        self.ctrl = FlightController()
        self.n_ticks = int(round(scenario.duration_s * 1000)) // TICK_MS
        if self.n_ticks == 0:
            raise ValueError(f"duration {scenario.duration_s} s is under one {TICK_MS} ms tick")
        self._check_record_fields()
        self.housing_temp_c = scenario.initial_housing_c
        self.flash = FlashImage()
        self.lc = LcState()
        # analyzer pair rate per (pair, signal mV), filled on first use
        self._pair_rates: dict[tuple[int, int], float] = {}

    @cached_property
    def rng(self) -> np.random.Generator:
        """The run's generator, built when the laser first draws, so that a
        run whose laser never turns on never imports `numpy.random`."""
        return np.random.default_rng(self.scenario.seed)

    def _check_record_fields(self) -> None:
        """Reject a run whose records would overflow a fixed-width field,
        by its length (time_ms, scan_id) or by its source (coinc_raw).

        Checked before the first tick, so an overlong run fails at once
        rather than at record validation hours into the simulation.
        """
        duration_s = self.scenario.duration_s
        last_ms = (self.n_ticks - 1) * TICK_MS // RECORD_PERIOD_MS * RECORD_PERIOD_MS
        max_ms = telemetry.RANGES["time_ms"][1]
        if last_ms > max_ms:
            raise ValueError(
                f"duration {duration_s} s: last record time_ms {last_ms} "
                f"exceeds the u32 field ({max_ms})"
            )
        # a scan id is held for at least a full scan (commit) or, once
        # burned by an abort, a fault hold before the next scan starts
        min_scan_s = min(FLIGHT_SCAN.n_steps * (SETTLE_TIME_MS / 1000 + FLIGHT_SCAN.dwell_s),
                         controller.FAULT_HOLD_S)
        max_id = telemetry.RANGES["scan_id"][1]
        if duration_s > max_id * min_scan_s:
            raise ValueError(
                f"duration {duration_s} s could use more scan ids than the "
                f"u16 scan_id field holds ({max_id} at >= {min_scan_s} s each)"
            )
        # a record sums up to three 50 ms ticks of the raw rate at the peak
        # of the pair curve, every detector at the top of its efficiency
        # curve: the top of the bias range over a breakdown voltage >= 0 V
        src = self.scenario.source
        params = [loop.params for loop in self.ctrl.bias_loops]
        refs = [reference_efficiency(p) for p in params]
        gain = max(detection_efficiency(p, p.bias_max_v) / ref for p, ref in zip(params, refs))
        rate = (physics.true_pair_rate(src, src.phase_offset_rad / 2.0) * gain**2
                + physics.accidental_rate(src.singles_rate_signal_hz * gain,
                                          src.singles_rate_idler_hz * gain,
                                          physics.COINCIDENCE_WINDOW_S))
        counts = rate * -(-RECORD_PERIOD_MS // TICK_MS) * TICK_S
        max_counts = telemetry.RANGES["coinc_raw"][1]
        if counts > max_counts:
            raise ValueError(f"peak raw coincidence rate {rate:.0f}/s could put {counts:.0f} "
                             f"counts in one record, over the u16 coinc_raw field ({max_counts})")

    def _pair_rate(self, pair: int, mv: int) -> float:
        """`controller.analyzer_pair_rate` at a signal LC voltage, cached per run."""
        key = (pair, mv)
        pair_rate = self._pair_rates.get(key)
        if pair_rate is None:
            angle = angle_from_voltage(CALIBRATION, mv / 1000.0)
            pair_rate = self._pair_rates[key] = controller.analyzer_pair_rate(
                self.scenario.source, pair, angle)
        return pair_rate

    def _draws(self, laser_on: bool, heater_watts: float) -> tuple[float, float]:
        """A tick's bus draw (`thermal_power.total_power`) and housing heat
        (`internal_dissipation`), cached per run by whether the laser is on
        and the heater power. Every tick's draw comes through here, and
        only results that returned are kept: a key that raises raises every
        time it comes up, and the largest cached draw is the run's peak."""
        key = (laser_on, heater_watts)
        draws = self._draw_cache.get(key)
        if draws is None:
            draws = self._draw_cache[key] = (
                thermal_power.total_power(laser_on, heater_watts),
                thermal_power.internal_dissipation(laser_on),
            )
        return draws

    def _close_period(self) -> None:
        """Log the open period's record into the pending block, at the top
        of the next period's first tick, and open the next period.

        The context is the period's first counting tick's, else its commit
        tick's, else that of `_last_cmd`, the last commands. The
        temperature, laser power and biases are the values at this moment.
        """
        ctx = self._count_ctx or self._commit_ctx
        if ctx is None:
            cmd = self._last_cmd
            ctx = (cmd.scan_id, cmd.step, cmd.pair, self.lc.signal_mv, self.lc.idler_mv)
        ch1, ch2 = controller.PAIR_CHANNELS[ctx[2]]
        loops = self.ctrl.bias_loops
        self._rows.append(ctx + (self._s1, self._s2, self._coinc, self._flags,
                                 self._last_laser_mw, loops[ch1].bias, loops[ch2].bias))
        self._repeats.append(1)
        self._temps.append(self.housing_temp_c)
        self._s1 = self._s2 = self._coinc = self._flags = 0
        self._count_ctx = self._commit_ctx = None
        if len(self._temps) == PENDING_RECORDS:
            self._write_block()

    def _write_block(self) -> None:
        """Write the pending block as one `RECORD_DTYPE` table, and keep its
        counting and commit rows for `_fit_scans`.

        Record i of the block is period `flash.cursor + i`, the cursor
        before the write. Each logged row is converted and range-checked
        once, whether it stands for one period or a hold's many; its
        records then differ only in time, temperature and the wrap flag.
        """
        n = len(self._temps)
        if n == 0:
            return
        first = self.flash.cursor
        temps = np.array(self._temps, dtype=np.float64)
        bad = ~np.isfinite(temps)
        if bad.any():  # air far out of range can drive the housing to inf or NaN
            i = int(bad.argmax())
            raise ValueError(f"housing temperature {temps[i]} C of the record at time_ms "
                             f"{(first + i) * RECORD_PERIOD_MS} is not finite")
        # ints and floats in one float64 array: every int field is below 2**53
        rows = self._rows
        raw = np.fromiter(chain.from_iterable(rows), np.float64, ROW_FIELDS * len(rows))
        raw = raw.reshape(len(rows), ROW_FIELDS)
        # one row per logged row; time and temperature stay 0 until its records fill them
        wide = np.zeros((len(raw), len(telemetry.RECORD_DTYPE.names) - 1), dtype=np.int64)
        wide[:, 1:9] = raw[:, :8]  # scan id, step, pair, LC mV, counts
        wide[:, 10] = telemetry.fixed_point(raw[:, 9], 100)  # mW in 10 uW
        wide[:, 11:13] = telemetry.fixed_point(raw[:, 10:12], 10)  # V in 0.1 V
        wide[:, 13] = raw[:, 8].astype(np.int64) | telemetry.FLAG_PRESENT
        table = np.repeat(telemetry.table_from_rows(wide), self._repeats)
        # the per-record fields need no second check: `_check_record_fields`
        # bounds the run's last time_ms, `centi_c` clamps every finite
        # temperature, and the wrap flag is one bit of the checked flags byte
        table["time_ms"] = np.arange(first, first + n) * RECORD_PERIOD_MS
        table["temp_centi_c"] = telemetry.centi_c(temps)
        table["flags"][max(0, telemetry.SECTOR_CAPACITY - first):] |= telemetry.FLAG_WRAPPED
        telemetry.write_redundant(self.flash, table)
        self._temps.clear()
        self._rows.clear()
        self._repeats.clear()
        counted = (table["flags"] & (telemetry.FLAG_COUNTING | telemetry.FLAG_SCAN_COMMIT)) != 0
        self._scan_rows.append(table[counted])

    def _tick_flags(self, cmd: Commands) -> int:
        """The record flags that one tick's commands set."""
        flags = 0
        if cmd.laser_on:
            flags |= telemetry.FLAG_LASER_ON
        if cmd.heater_watts > 0:
            flags |= telemetry.FLAG_HEATER_ON
        if cmd.mode is Mode.FAULT_HOLD:
            flags |= telemetry.FLAG_FAULT_HOLD
        loops = self.ctrl.bias_loops
        ch1, ch2 = self.ctrl.active_channels()
        if loops[ch1].railed or loops[ch2].railed:
            flags |= telemetry.FLAG_BIAS_RAILED
        return flags

    def _advance(self, k: int, cmd: Commands, ext_temp: memoryview) -> int:
        """Advance tick k, whose commands `cmd` the controller has just
        given and `_last_cmd` holds, then every later tick that
        `FlightController.hold` admits by its start-of-tick temperature;
        return the first tick not advanced.

        Each tick steps the housing node against `ext_temp`, the series of
        `boundary_temps` (`housing_step` inlined, in its operation order),
        its extremes and its temperature bound. The loop walks the series
        beside a cycle of `NEXT_STARTS_PERIOD` rather than indexing them, so
        only a tick whose successor opens a period compares that successor
        with `end`: the end of the run under a hold, k + 1 without one.
        Tick k also puts its flags in the open period and draws through
        `_draws`, and a held tick repeats both. The first period closed
        after tick k goes through `_close_period`; each later one differs
        only in temperature, so it appends only that, under one row with a
        repeat count. The LC settle timer counts down over all the ticks at
        once. After a held tick the last commands are the held ones and the
        laser reads 0.
        """
        ctrl, first = self.ctrl, k
        flags = self._tick_flags(cmd)
        self._flags |= flags
        _, dissipation = self._draws(cmd.laser_on, cmd.heater_watts)
        hold = ctrl.hold()
        bound, below = hold or (0.0, True)
        end = self.n_ticks if hold else k + 1  # without a hold, tick k alone
        held_cmd = Commands(ctrl.mode, ctrl.heater_watts, pair=ctrl.pair)
        ch1, ch2 = controller.PAIR_CHANNELS[ctrl.pair]
        loops = ctrl.bias_loops
        held_row = (0, 0, ctrl.pair, self.lc.signal_mv, self.lc.idler_mv,
                    0, 0, 0, flags, 0.0, loops[ch1].bias, loops[ch2].bias)
        # periods logged with only their temperature, for held_row to stand
        # for; -1 until the first period closes
        held = -1
        temps = self._temps
        # `thermal_power.housing_step`, term for term: heat in, then the flow
        heat_in = cmd.heater_watts + dissipation
        conductance, capacity = HOUSING_CONDUCTANCE_W_PER_C, HOUSING_HEAT_CAPACITY_J_PER_C
        temp = self.housing_temp_c
        h_min, h_max = self._housing_min, self._housing_max
        # k is the tick after the one just stepped, `start` whether k opens a
        # period; the slice stops the loop at `end`
        starts = islice(cycle(NEXT_STARTS_PERIOD), k % PERIOD_TICKS, None)
        for k, ext, start in zip(count(k + 1), ext_temp[k:end], starts):
            temp = temp + TICK_S * (heat_in - conductance * (temp - ext)) / capacity
            if temp < h_min:
                h_min = temp
            if temp > h_max:
                h_max = temp
            if not (temp < bound if below else temp > bound):
                break
            if not start or k == end:
                continue
            # a new period starts
            if held < 0:  # the period of tick k may hold counts or a commit
                self.housing_temp_c = temp
                if k > first + 1:  # it ends on a held tick
                    self._last_cmd, self._last_laser_mw = held_cmd, 0.0
                self._close_period()
                self._flags = flags
                held = 0
            else:
                temps.append(temp)
                held += 1
                if len(temps) == PENDING_RECORDS:
                    self._rows.append(held_row)
                    self._repeats.append(held)
                    held = 0
                    self._write_block()
        if held > 0:
            self._rows.append(held_row)
            self._repeats.append(held)
        if k > first + 1:
            self._last_cmd, self._last_laser_mw = held_cmd, 0.0
        if not self.lc.settled:
            self.lc = step_settle(self.lc, TICK_MS * (k - first))
        self.housing_temp_c = temp
        self._housing_min, self._housing_max = h_min, h_max
        return k

    def _operating_stretch(self, k: int, ext_temp: memoryview) -> int:
        """Advance from tick k while the laser is on, up to the next tick
        the controller has to decide.

        Entered at the top of tick k, after its period check, whenever the
        laser is on. Each tick does on locals, in the order of a tick
        through the controller and the device models and with their
        arithmetic: the laser draw and its dips; the monitor's sample, its
        one fullness test, by the span of the kept samples, and its
        stability test (`LaserMonitor.add_sample`, `ready`, `laser_stable`):
        one comparison per tick against the monitor's band while it
        certifies (the empty band otherwise), so that a full window whose
        kept powers all lie in it is stable, and for any other full window
        a call of `laser_stable`, whose median may re-centre the band; in
        SCANNING the SCANNING branch of `FlightController.decide` (step
        command, settle wait or counting tick) and the engine's LC commands;
        the operating heater rule (`heater_command`); the signal loop's PI
        bias step (`ApdBiasLoop.step`), and the idler loop's (below); on a
        counting tick the rates (`controller.bench_rates` at the loops'
        `physics.efficiency_factor`, the signal loop's saturating form
        written out on the scale and reference efficiency bound on entry,
        the analyzer part from `_pair_rate`; the detected singles are >= 0
        for every valid `SourceParams` and `ApdParams`, so
        `accidental_rate`'s sign check is not repeated) and three Poisson
        draws (`physics.sample_counts`); the tick flags; the LC pair's
        settle timer (`step_settle`); the housing step (`housing_step`) against
        `ext_temp`, the series of `boundary_temps`; and the period close
        (`_close_period`). A LASER_STABILIZING tick is the same tick
        with the scan steps switched off; its commands carry scan id 0 and
        step 0. The laser draws about the source's `pump_power_mw`. The draw
        cache is looked up only when the heater toggles. Neither a not-ready
        window nor a railed bias loop stops the stretch.

        Twin loops, which share one `ApdParams` object and enter with a
        bias and integrator that are the same float bit for bit (0.0 and
        -0.0 are not), step alike on every tick, as both see one
        temperature. So the idler loop copies the signal loop's bias,
        integrator and rail flag, and on a counting tick its efficiency
        factor. `FlightController` builds every loop on one `ApdParams`
        from 115 V, and a pair's loops step together, so each stretch of a
        shipped run enters with twins. An unlike idler loop steps through
        `ApdBiasLoop.step` itself, and its factor is `efficiency_factor`.

        The inline step needs no range test. `ApdParams` holds
        0 <= `bias_min_v` < `bias_max_v`, so a bias in that range passes
        both checks of `ApdBiasLoop.step`. Every bias the step meets lies
        in it: the stretch follows a decided laser-on tick, on which
        `FlightController.decide` stepped the same pair through the
        checking `ApdBiasLoop.step`, and each step, that one and every
        inline one, clamps its result to the range. No result is NaN: the
        error is at most 1, as the amplitude is >= 0 (a NaN overvoltage
        reads 0), and an error of -inf rails the bias and resets the
        integrator.

        In SCANNING the window is trimmed only while a power outside the
        band is in it. Let `oldest` be the oldest kept time at the last
        trim. While `outside_t < oldest`, every kept power lies in a band
        that certifies: the empty band puts each sample's time in
        `outside_t`, and trims only drop samples, so the oldest kept time
        is at least `oldest`. Such a window reads stable once full, and in
        SCANNING a stable window goes on, so the tick needs neither the
        trim nor the fullness test. The horizon `t - window_s` never
        decreases and the times increase, so one trim at the newest
        horizon keeps the samples that the trims of every tick would have
        kept. That trim is made where the window is next read: before
        `laser_stable`, and on every exit. Between trims the window grows
        by at most one scan's ticks, as the STORING tick ends the stretch.

        It returns the first tick it did not advance: the end of the run,
        or a tick the controller decides, after its period check and with
        its reading in the monitor and in `_last_laser_mw`. Those are a
        full window that reads stable in LASER_STABILIZING (the scan
        begins) or unstable in SCANNING (it aborts), and every STORING
        tick. Every local is written back on the way out, also when a draw
        raises, the band test's `outside_t` among them, and the window is
        trimmed.
        """
        ctrl, poisson, normal = self.ctrl, self.rng.poisson, self.rng.standard_normal
        monitor = ctrl.monitor
        samples, window_s, threshold = monitor.samples, monitor.window_s, monitor.threshold
        full_span = window_s - 1e-9  # `LaserMonitor.ready`'s bound, as it computes it
        # the monitor's band while it certifies, else the empty band, which
        # sends every full window to `laser_stable`
        band_lo, band_hi = monitor.band if band_certifies(*monitor.band, threshold) else EMPTY_BAND
        out_t = monitor.outside_t
        # the oldest kept time as last trimmed; in SCANNING the window is
        # trimmed only while a power outside the band is in it
        oldest = samples[0][0] if samples else -math.inf
        dips = self.scenario.laser_dips
        mode_history, settle_ms = self._mode_history, self._settle_ms
        scanning, storing = ctrl.mode is Mode.SCANNING, False
        scan_id, pair, n_steps = ctrl.scan_id if scanning else 0, ctrl.pair, FLIGHT_SCAN.n_steps
        step, dwell, pending = ctrl.step_index, ctrl.dwell_remaining_ms, ctrl.pending_command
        cmd_step, voltages = step if scanning else 0, SCAN_VOLTAGES_MV
        hw, drawn_hw = ctrl.heater_watts, None
        # after a commit the idler LC holds the pair before's voltage until
        # the next step command
        sig_mv, idler_mv, settle = self.lc.signal_mv, self.lc.idler_mv, self.lc.settle_remaining_ms
        pair_rate = None
        source = self.scenario.source
        pump_mw, exp = source.pump_power_mw, math.exp
        singles_1, singles_2 = source.singles_rate_signal_hz, source.singles_rate_idler_hz
        window = physics.COINCIDENCE_WINDOW_S
        loops = ctrl.bias_loops
        loop_1, loop_2 = (loops[ch] for ch in PAIR_CHANNELS[pair])
        p1, p2 = loop_1.params, loop_2.params
        bd25_1, tc_1, gain_1 = (p1.breakdown_volts_at_25c, p1.breakdown_tempco_v_per_c,
                                p1.amplitude_gain_per_overvolt)
        min_1, max_1 = p1.bias_min_v, p1.bias_max_v
        rail_lo_1, rail_hi_1 = min_1 + 1e-9, max_1 - 1e-9
        scale_1, ref_1 = p1.efficiency_scale_v, reference_efficiency(p1)
        setpoint = BIAS_SETPOINT
        b1, i1, b2 = loop_1.bias, loop_1.integrator, loop_2.bias
        railed_1, railed_2 = loop_1.railed, loop_2.railed
        # twin loops step alike on every tick: one step serves both
        twin = p1 is p2 and _same_float(b1, b2) and _same_float(i1, loop_2.integrator)
        conductance, capacity = HOUSING_CONDUCTANCE_W_PER_C, HOUSING_HEAT_CAPACITY_J_PER_C
        temp = self.housing_temp_c
        h_min, h_max = self._housing_min, self._housing_max
        s1, s2, coinc, flags = self._s1, self._s2, self._coinc, self._flags
        count_ctx, commit_ctx = self._count_ctx, self._commit_ctx
        laser_mw = self._last_laser_mw
        rows, repeats, temps = self._rows, self._repeats, self._temps
        n_ticks = self.n_ticks
        try:
            while True:
                t_ms = k * TICK_MS
                laser_mw = pump_mw * (1.0 + LASER_NOISE * normal())
                if dips:
                    for t0, dur, frac in dips:
                        if t0 <= k * TICK_S < t0 + dur:
                            laser_mw *= 1.0 - frac
                t_s = t_ms / 1000.0
                samples.append((t_s, laser_mw))
                if not band_lo <= laser_mw <= band_hi:
                    out_t = t_s
                if storing:
                    return k
                # in SCANNING, while out_t < oldest, every full window reads
                # stable and the scan goes on: the trim waits
                if out_t >= oldest or not scanning:
                    horizon = t_s - window_s
                    while samples[0][0] < horizon:
                        samples.popleft()
                    oldest = samples[0][0]
                    if t_s - oldest >= full_span and len(samples) >= 2:
                        if out_t < oldest:  # every kept power in a band that certifies
                            stable = True
                        else:  # the exact median
                            monitor.outside_t = out_t
                            stable = laser_stable(monitor)
                            band_lo, band_hi = (monitor.band
                                                if band_certifies(*monitor.band, threshold)
                                                else EMPTY_BAND)
                            out_t = monitor.outside_t
                        if stable is not scanning:  # a scan begins, or aborts
                            return k

                counting = False
                if scanning:
                    cmd_step = step
                    if pending:
                        pending, dwell = False, DWELL_MS
                        sig_mv, settle = voltages[step], SETTLE_TIME_MS
                        pair_rate = None
                        self._command_ms = t_ms
                    elif settle == 0 and dwell > 0:
                        counting = True
                        dwell -= TICK_MS
                        if dwell == 0:
                            step += 1
                            if step >= n_steps:
                                ctrl.mode = Mode.STORING
                                mode_history.append((t_ms, Mode.STORING.value))
                                storing = True
                            else:
                                pending = True

                if temp < HEATER_ON_BELOW_C:
                    hw = HEATER_CAP_OPERATING_W
                elif temp > HEATER_OFF_ABOVE_C:
                    hw = 0.0
                else:
                    hw = HEATER_CAP_OPERATING_W if hw > 0.0 else 0.0

                bd1 = bd25_1 + tc_1 * (temp - 25.0)
                over = b1 - bd1
                err = (setpoint - gain_1 * (over if over > 0.0 else 0.0)) / setpoint
                trial = i1 + err
                bias = b1 + BIAS_KP * err + BIAS_KI * trial
                if bias > max_1:
                    b1, i1 = max_1, 0.0
                elif bias < min_1:
                    b1, i1 = min_1, 0.0
                else:
                    b1, i1 = bias, trial
                railed_1 = b1 <= rail_lo_1 or b1 >= rail_hi_1

                if twin:
                    b2, railed_2 = b1, railed_1
                else:
                    b2 = loop_2.step(temp)
                    railed_2 = loop_2.railed

                if counting:
                    if pair_rate is None:
                        pair_rate = self._pair_rate(pair, sig_mv)
                    over = b1 - bd1
                    f1 = (1.0 - exp(-over / scale_1)) / ref_1 if over > 0.0 else 0.0
                    f2 = f1 if twin else physics.efficiency_factor(p2, b2, temp)
                    rate_1, rate_2 = singles_1 * f1, singles_2 * f2
                    rate_c = pair_rate * f1 * f2 + rate_1 * rate_2 * window
                    # a scalar draw is a Python int; `min` only where a
                    # singles count binds the coincidences
                    n1 = poisson(rate_1 * TICK_S)
                    n2 = poisson(rate_2 * TICK_S)
                    c = poisson(rate_c * TICK_S)
                    s1 += n1
                    s2 += n2
                    coinc += c if c <= n1 and c <= n2 else min(c, n1, n2)
                    flags |= FLAG_COUNTING
                    if count_ctx is None:
                        count_ctx = (scan_id, cmd_step, pair, sig_mv, idler_mv)
                    if self._command_ms is not None:
                        settle_ms.add(t_ms - self._command_ms)
                        self._command_ms = None

                flags |= FLAG_LASER_ON | FLAG_HEATER_ON if hw > 0 else FLAG_LASER_ON
                if railed_1 or railed_2:
                    flags |= FLAG_BIAS_RAILED

                if settle:
                    settle = max(0, settle - TICK_MS)

                if hw != drawn_hw:
                    heat_in, drawn_hw = hw + self._draws(True, hw)[1], hw
                temp = temp + TICK_S * (heat_in - conductance * (temp - ext_temp[k])) / capacity
                if temp < h_min:
                    h_min = temp
                if temp > h_max:
                    h_max = temp

                k += 1
                if k == n_ticks:
                    return k
                if k * TICK_MS % RECORD_PERIOD_MS >= TICK_MS:
                    continue
                # a new period starts: `_close_period`
                ctx = count_ctx or commit_ctx or (scan_id, cmd_step, pair, sig_mv, idler_mv)
                if ctx[2] == pair:
                    rows.append(ctx + (s1, s2, coinc, flags, laser_mw, b1, b2))
                else:  # a commit record of the pair before
                    ch1, ch2 = PAIR_CHANNELS[ctx[2]]
                    rows.append(ctx + (s1, s2, coinc, flags, laser_mw,
                                       loops[ch1].bias, loops[ch2].bias))
                repeats.append(1)
                temps.append(temp)
                s1 = s2 = coinc = flags = 0
                count_ctx = commit_ctx = None
                if len(temps) == PENDING_RECORDS:
                    self._write_block()
        finally:
            if samples:  # the trims put off, as `add_sample` makes them
                horizon = samples[-1][0] - window_s
                while samples[0][0] < horizon:
                    samples.popleft()
            monitor.outside_t = out_t
            ctrl.step_index, ctrl.dwell_remaining_ms, ctrl.pending_command = step, dwell, pending
            ctrl.heater_watts = hw
            loop_1.bias, loop_1.integrator, loop_1.railed = b1, i1, railed_1
            if twin:  # an unlike idler loop stepped itself
                loop_2.bias, loop_2.integrator, loop_2.railed = b2, i1, railed_2
            self.lc = LcState(sig_mv, idler_mv, settle)
            self._last_cmd = Commands(ctrl.mode, hw, scan_id=scan_id, step=cmd_step, pair=pair)
            self._s1, self._s2, self._coinc, self._flags = s1, s2, coinc, flags
            self._count_ctx, self._commit_ctx = count_ctx, commit_ctx
            self._last_laser_mw = laser_mw
            self.housing_temp_c = temp
            self._housing_min, self._housing_max = h_min, h_max

    def run(self) -> tuple[FlashImage, RunSummary]:
        scen, profile = self.scenario, self.scenario.profile
        n_ticks = self.n_ticks
        air = np.interp(np.arange(n_ticks) * TICK_S, profile.t_s, profile.temp_c)
        ext_temp, package_min, package_max = boundary_temps(scen, air)

        aborted = 0
        # the pending block: per record its start-of-next-period housing
        # temperature, and its other raw values as rows that each stand for
        # `_repeats` consecutive records
        self._temps: list[float] = []
        self._rows: list[tuple] = []
        self._repeats: list[int] = []
        # the open period's summed counts, flags and context
        self._s1 = self._s2 = self._coinc = self._flags = 0
        self._count_ctx: tuple[int, ...] | None = None
        self._commit_ctx: tuple[int, ...] | None = None
        # each committed scan as its STORING tick knew it, and each written
        # block's counting and commit rows, which `_fit_scans` groups
        self._committed: list[tuple] = []
        self._scan_rows: list[np.ndarray] = []
        # the open scan: its start, the time of its step command not yet
        # counted and its settle times
        self._scan_start_ms = 0
        self._command_ms: int | None = None
        self._settle_ms: set[int] = set()
        self._last_laser_mw = 0.0
        self._last_cmd = Commands(mode=Mode.INIT)
        self._draw_cache: dict[tuple, tuple[float, float]] = {}
        self._housing_min = self._housing_max = self.housing_temp_c
        self._mode_history: list[tuple[int, str]] = [(0, self.ctrl.mode.value)]
        ctrl = self.ctrl

        k = 0
        while k < n_ticks:
            if k and k * TICK_MS % RECORD_PERIOD_MS < TICK_MS:  # a new period starts
                self._close_period()

            if ctrl.laser_on:  # on to a tick to decide, its reading in the monitor
                k = self._operating_stretch(k, ext_temp)
                if k == n_ticks:
                    break
            else:
                self._last_laser_mw = 0.0
            t_ms = k * TICK_MS
            sensors = Sensors(
                time_ms=t_ms,
                housing_temp_c=self.housing_temp_c,
                laser_power_mw=self._last_laser_mw,
                lc_settled=self.lc.settled,
            )
            prev_mode = ctrl.mode
            cmd = self._last_cmd = ctrl.decide(sensors)
            if cmd.mode is not prev_mode:
                self._mode_history.append((t_ms, cmd.mode.value))

            if cmd.lc_signal_mv is not None:  # a step command writes both LCs
                self.lc = command_voltage(cmd.lc_signal_mv, IDLER_VOLTAGES_MV[cmd.pair])
                if cmd.step == 0:  # a new set: `_committed` holds the last one
                    self._scan_start_ms, self._settle_ms = t_ms, set()
                self._command_ms = t_ms

            if cmd.abort_scan:
                aborted += 1

            if cmd.counting:  # the operating stretch counts every counting tick
                raise RuntimeError(f"tick {k} counts outside the operating stretch")

            if cmd.commit_scan:
                self._flags |= telemetry.FLAG_SCAN_COMMIT
                self._commit_ctx = (cmd.scan_id, cmd.step, cmd.pair,
                                    self.lc.signal_mv, self.lc.idler_mv)
                # k * TICK_S is the tick's time as the air series takes it
                altitude = float(np.interp(k * TICK_S, profile.t_s, profile.altitude_m))
                self._committed.append((cmd.scan_id, self._scan_start_ms, t_ms, altitude,
                                        self._settle_ms))

            k = self._advance(k, cmd, ext_temp)

        self._close_period()
        self._write_block()

        summary = RunSummary(
            scenario=scen.name,
            seed=scen.seed,
            duration_s=scen.duration_s,
            scans=self._fit_scans(),
            aborted_scans=aborted,
            records_written=self.flash.cursor,
            max_total_power_w=max(total for total, _ in self._draw_cache.values()),
            housing_temp_min_c=self._housing_min,
            housing_temp_max_c=self._housing_max,
            package_temp_min_c=package_min,
            package_temp_max_c=package_max,
            mode_history=self._mode_history,
            laser_activations=list(ctrl.laser_activations),
        )
        return self.flash, summary

    def _fit_scans(self) -> list[ScanSummary]:
        """Group the written counting and commit rows as on the ground, in one
        `analysis.scan_data_from_records` call, and fit every committed scan
        in one `analysis.fit_sinusoids` call.

        The grouping drops the rows of an aborted attempt, whose id has no
        commit marker, and those of a scan the run ended in; scan ids are
        never reused, so no scan's rows mix with another's, and the grouped
        ids are the committed ones, ascending.
        """
        if not self._committed:
            return []
        ids, scans, _ = analysis.scan_data_from_records(np.concatenate(self._scan_rows),
                                                        FLIGHT_SCAN.dwell_s)
        metas = self._committed
        if ids != [meta[0] for meta in metas]:
            raise RuntimeError(f"committed scans {[meta[0] for meta in metas]} grouped as {ids}")
        fits = analysis.fit_sinusoids(scans.angles_rad, analysis.correct_accidentals(scans))
        return [
            ScanSummary(
                scan_id=scan_id, pair=pair, t_start_ms=start_ms, t_commit_ms=commit_ms,
                visibility=fit.visibility, phase_rad=fit.phase_rad,
                rms_residual=fit.rms_residual, converged=fit.converged,
                altitude_m=altitude, settle_ms_values=tuple(sorted(settle_ms)),
            )
            for (scan_id, start_ms, commit_ms, altitude, settle_ms), pair, fit
            in zip(metas, scans.pair.tolist(), fits)
        ]


def run_simulation(scenario: Scenario) -> tuple[FlashImage, RunSummary]:
    """Run a scenario to completion; the scenario, its seed included,
    determines every byte."""
    return SimulationEngine(scenario).run()


def summary_to_csv(summary: RunSummary, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scan_id", "pair", "t_start_ms", "t_commit_ms", *analysis.FIT_COLUMNS,
                    "altitude_m"])
        w.writerows([s.scan_id, s.pair, s.t_start_ms, s.t_commit_ms, *analysis.fit_columns(s),
                     f"{s.altitude_m:.1f}"] for s in summary.scans)
