"""Environment profiles and the end-to-end simulation engine.

A scenario is an environment time series (temperature, pressure, altitude,
acceleration) plus source ground truth and a seed. The engine advances the
flight controller at a fixed 50 ms tick against device models, streams
8 Hz telemetry into redundant flash, and fits every committed scan,
returning the flash image and a run summary. Identical (scenario, seed)
inputs produce byte-identical flash output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import analysis, controller, physics, telemetry, thermal_power
from .controller import Commands, FlightController, Mode, ScanConfig, Sensors
from .lc_optics import LcCalibration, LcState, angle_from_voltage, command_voltage, \
    default_calibration, step_settle
from .physics import SourceParams
from .telemetry import FlashImage, TelemetryRecord
from .thermal_power import PowerLedger, ThermalParams, ThermalState

TICK_MS = controller.TICK_MS
TICK_S = controller.TICK_S
RECORD_PERIOD_MS = 125  # 8 Hz telemetry

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
        if np.any(np.diff(self.t_s) <= 0):
            raise ValueError("profile times must be strictly increasing")
        if np.any(self.pressure_mbar < 0) or np.any(self.accel_g < 0):
            raise ValueError("pressure and acceleration must be nonnegative")

    @property
    def duration_s(self) -> float:
        return float(self.t_s[-1])

    def sample(self, t: float) -> tuple[float, float, float, float]:
        return (
            float(np.interp(t, self.t_s, self.temp_c)),
            float(np.interp(t, self.t_s, self.pressure_mbar)),
            float(np.interp(t, self.t_s, self.altitude_m)),
            float(np.interp(t, self.t_s, self.accel_g)),
        )


def lab_profile(duration_s: float) -> EnvironmentProfile:
    """Constant bench conditions: 22 C, sea-level pressure, 1 g."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
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
    if duration_s <= 0:
        raise ValueError("duration must be positive")
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
    if duration_s < 86400.0:
        raise ValueError("qualification run must cover at least 24 h")
    t = np.arange(0.0, duration_s + 10.0, 10.0)
    temp = 15.0 + 25.0 * np.cos(2.0 * math.pi * t / ORBIT_PERIOD_S)
    return EnvironmentProfile(
        t_s=t,
        temp_c=temp,
        pressure_mbar=np.full_like(t, 1e-7),
        altitude_m=np.zeros_like(t),
        accel_g=np.ones_like(t),
    )


@dataclass
class PackageNode:
    """Thermal node of the insulated payload package around the housing.

    For the balloon flight the published boundary condition is the internal
    package temperature, so the profile's air temperature is reverse-shaped
    through this node and the simulation re-integrates it forward.
    """

    heat_capacity_j_per_c: float = 1500.0
    conductance_w_per_c: float = 0.4
    payload_watts: float = 1.3


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


def balloon_profile(package: PackageNode | None = None) -> EnvironmentProfile:
    """Full stratospheric flight profile.

    Altitude: ground hold, 5 m/s ascent to the 35.5 km ceiling, burst,
    drag-limited descent, landing plus a short ground tail. Acceleration
    is 1 g with spike samples of 20 g at burst and 23 g at landing.
    Pressure follows an exponential atmosphere. The air temperature is
    constructed so that the package node reproduces the internal
    temperature control points exactly (see PackageNode).
    """
    pkg = package or PackageNode()
    t_release, t_burst, t_land = balloon_flight_times()
    t_end = t_land + 400.0

    knots = list(_BALLOON_PACKAGE_KNOTS)
    knots.append((t_land, 5.0))
    knots.append((t_end, 9.0))
    pk_t = np.array([k[0] for k in knots])
    pk_T = np.array([k[1] for k in knots])
    package_curve = PchipInterpolator(pk_t, pk_T)
    package_slope = package_curve.derivative()

    base = np.arange(0.0, t_end + 10.0, 10.0)
    events = np.array([
        t_release - 1.0, t_release, t_release + 1.0,
        t_burst - 1.0, t_burst, t_burst + 1.0,
        t_land - 1.0, t_land, t_land + 1.0,
    ])
    t = np.unique(np.concatenate([base, events, [t_end]]))
    t = t[t <= t_end]

    # altitude piecewise
    desc_t, desc_h = _balloon_descent(t_burst)
    alt = np.empty_like(t)
    for i, ti in enumerate(t):
        if ti <= t_release:
            alt[i] = BALLOON_GROUND_ALT_M
        elif ti <= t_burst:
            alt[i] = BALLOON_GROUND_ALT_M + BALLOON_ASCENT_RATE_M_S * (ti - t_release)
        else:
            alt[i] = float(np.interp(ti, desc_t, desc_h))
    alt = np.minimum(alt, BALLOON_CEILING_M)

    pressure = SEA_LEVEL_PRESSURE_MBAR * np.exp(-alt / ATMOSPHERE_SCALE_HEIGHT_M)

    accel = np.ones_like(t)
    accel[np.isclose(t, t_release)] = 1.5  # release bump
    accel[np.isclose(t, t_burst)] = BURST_ACCEL_G
    accel[np.isclose(t, t_land)] = LANDING_ACCEL_G

    # reverse-shape the air temperature through the package node
    T_pkg = package_curve(t)
    dT_pkg = package_slope(t)
    air = T_pkg + (pkg.heat_capacity_j_per_c * dT_pkg - pkg.payload_watts) / pkg.conductance_w_per_c

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
    if len(cols[0]) < 2:
        raise ValueError("profile needs at least 2 samples")
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
    extinction_ratio: float = 2000.0
    initial_housing_c: float = 22.0
    package: PackageNode | None = None
    initial_package_c: float | None = None
    laser_dips: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


def make_scenario(
    name: str,
    duration_s: float | None = None,
    seed: int = 1,
    profile_path: str | None = None,
) -> Scenario:
    """Construct one of the canonical scenarios (or a custom one from CSV)."""
    name = name.lower()
    if name == "lab":
        dur = duration_s or 480.0
        return Scenario("lab", lab_profile(dur), dur, seed, initial_housing_c=22.0)
    if name == "leo":
        dur = duration_s or 6000.0
        return Scenario(
            "leo",
            leo_cycle_profile(dur, phase_s=ORBIT_PERIOD_S / 2.0),
            dur,
            seed,
            initial_housing_c=-5.0,
        )
    if name == "thermalvac":
        dur = duration_s or 86400.0
        return Scenario(
            "thermalvac",
            thermal_vac_profile(dur),
            dur,
            seed,
            initial_housing_c=20.0,
        )
    if name == "balloon":
        pkg = PackageNode()
        profile = balloon_profile(pkg)
        dur = duration_s or profile.duration_s
        return Scenario(
            "balloon",
            profile,
            dur,
            seed,
            source=SourceParams(true_visibility=0.93),
            initial_housing_c=12.0,
            package=pkg,
            initial_package_c=float(_BALLOON_PACKAGE_KNOTS[0][1]),
        )
    if name == "custom":
        if not profile_path:
            raise ValueError("custom scenario needs a profile CSV")
        profile = load_profile_csv(profile_path)
        dur = duration_s or profile.duration_s
        return Scenario("custom", profile, dur, seed)
    raise ValueError(f"unknown scenario {name!r}")


@dataclass
class ScanSummary:
    scan_id: int
    pair: int
    t_start_ms: int
    t_commit_ms: int
    visibility: float
    raw_v: float
    phase_rad: float
    rms_residual: float
    converged: bool
    altitude_m: float
    settle_ms_values: tuple[int, ...]

    @property
    def span_ms(self) -> int:
        return self.t_commit_ms - self.t_start_ms


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

    def scan_to_scan_std(self) -> float:
        v = self.visibilities
        return float(np.std(v, ddof=1)) if len(v) > 1 else 0.0

    def mean_rms_residual(self) -> float:
        return float(np.mean([s.rms_residual for s in self.scans])) if self.scans else 0.0


class _RecordBucket:
    """Accumulator for one 125 ms telemetry period."""

    __slots__ = ("period", "s1", "s2", "coinc", "flags", "count_ctx", "commit_ctx")

    def __init__(self, period: int):
        self.period = period
        self.s1 = 0
        self.s2 = 0
        self.coinc = 0
        self.flags = 0
        self.count_ctx: tuple[int, int, int, int, int] | None = None
        self.commit_ctx: tuple[int, int, int, int, int] | None = None


class SimulationEngine:
    """Deterministic 50 ms tick loop wiring controller, devices, and storage."""

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.rng = np.random.default_rng(self.seed)
        self.calibration = default_calibration()
        self.ctrl = FlightController(calibration=self.calibration)
        self.n_ticks = int(round(scenario.duration_s * 1000)) // TICK_MS
        self._check_run_length()
        self.thermal_params = ThermalParams()
        self.thermal = ThermalState(housing_temp_c=scenario.initial_housing_c)
        self.ledger = PowerLedger()
        self.flash = FlashImage()
        self.lc_signal = LcState()
        self.lc_idler = LcState()
        # analyzer angle of the signal LC's commanded voltage; set with every
        # signal command, and counting only ever follows one
        self.signal_angle: float | None = None
        self.package_temp = scenario.initial_package_c
        self.window_s = physics.COINCIDENCE_WINDOW_S
        self._benches = [
            controller.OpticalBench(
                source=scenario.source,
                calibration=self.calibration,
                extinction_ratio=scenario.extinction_ratio,
                pair=p,
            )
            for p in (controller.PAIR_1_4, controller.PAIR_2_3)
        ]

    def _check_run_length(self) -> None:
        """Reject a run whose records would overflow a fixed-width field.

        Checked before the first tick, so an overlong run fails at once
        rather than at record validation hours into the simulation.
        """
        duration_s = self.scenario.duration_s
        last_ms = (self.n_ticks - 1) * TICK_MS // RECORD_PERIOD_MS * RECORD_PERIOD_MS
        max_ms = TelemetryRecord._RANGES["time_ms"][1]
        if last_ms > max_ms:
            raise ValueError(
                f"duration {duration_s} s: last record time_ms {last_ms} "
                f"exceeds the u32 field ({max_ms})"
            )
        # a scan id is held for at least a full scan (commit) or, once
        # burned by an abort, a fault hold before the next scan starts
        cfg = self.ctrl.config
        min_scan_s = min(cfg.n_steps * (cfg.settle_s + cfg.dwell_s), controller.FAULT_HOLD_S)
        max_id = TelemetryRecord._RANGES["scan_id"][1]
        if duration_s > max_id * min_scan_s:
            raise ValueError(
                f"duration {duration_s} s could use more scan ids than the "
                f"u16 scan_id field holds ({max_id} at >= {min_scan_s} s each)"
            )

    def _laser_power(self, t_s: float, laser_on: bool) -> float:
        if not laser_on:
            return 0.0
        power = 9.0 * (1.0 + 0.0003 * float(self.rng.standard_normal()))
        for t0, dur, frac in self.scenario.laser_dips:
            if t0 <= t_s < t0 + dur:
                power *= 1.0 - frac
        return power

    def _counting_rates(self, pair: int) -> tuple[float, float, float]:
        ch1, ch2 = controller.PAIR_CHANNELS[pair]
        loops = self.ctrl.bias_loops
        temp = self.thermal.housing_temp_c
        bench = self._benches[pair]
        bench.apd_factors = (
            physics.efficiency_factor(loops[ch1].params, loops[ch1].bias, temp),
            physics.efficiency_factor(loops[ch2].params, loops[ch2].bias, temp),
        )
        return controller.bench_rates(bench, self.signal_angle)

    def _flush_bucket(self, bucket: _RecordBucket, cmd: Commands) -> None:
        ctx = bucket.count_ctx or bucket.commit_ctx
        if ctx is None:
            ctx = (cmd.scan_id, cmd.step, cmd.pair,
                   round(self.lc_signal.commanded_voltage * 1000),
                   round(self.lc_idler.commanded_voltage * 1000))
        scan_id, step, pair, sig_mv, idl_mv = ctx
        flags = bucket.flags | telemetry.FLAG_PRESENT
        if self.flash.cursor >= telemetry.SECTOR_CAPACITY:
            flags |= telemetry.FLAG_WRAPPED
        ch1, ch2 = controller.PAIR_CHANNELS[pair]
        record = TelemetryRecord(
            time_ms=bucket.period * RECORD_PERIOD_MS,
            scan_id=scan_id,
            step=step,
            pair_sel=pair,
            lc_signal_mv=sig_mv,
            lc_idler_mv=idl_mv,
            singles_1=bucket.s1,
            singles_2=bucket.s2,
            coinc_raw=min(bucket.coinc, 2**16 - 1),
            temp_centi_c=int(round(
                max(-327.68, min(327.67, self.thermal.housing_temp_c)) * 100
            )),
            laser_power_10uw=round(self._last_laser_mw * 100),
            bias_1_decivolt=round(self.ctrl.bias_loops[ch1].bias * 10),
            bias_2_decivolt=round(self.ctrl.bias_loops[ch2].bias * 10),
            flags=flags,
        )
        telemetry.write_redundant(self.flash, [record])
        self.records_written += 1

    def _new_scan_meta(self, t_ms: int, pair: int) -> dict:
        return {"start_ms": t_ms, "pair": pair, "settle": set(),
                "command_ms": {}, "counted": set()}

    def run(self) -> tuple[FlashImage, RunSummary]:
        scen = self.scenario
        n_ticks = self.n_ticks
        tick_times = np.arange(n_ticks) * (TICK_MS / 1000.0)
        env_temp = np.interp(tick_times, scen.profile.t_s, scen.profile.temp_c)
        env_alt = np.interp(tick_times, scen.profile.t_s, scen.profile.altitude_m)

        step_acc: dict[tuple[int, int], list] = {}
        scan_meta: dict[int, dict] = {}
        scans: list[ScanSummary] = []
        aborted = 0
        self.records_written = 0
        self._last_laser_mw = 0.0
        self._idle_cmd = Commands(mode=Mode.INIT)
        max_power = 0.0
        housing_min = housing_max = self.thermal.housing_temp_c
        pkg_min = pkg_max = self.package_temp
        mode_history: list[tuple[int, str]] = [(0, self.ctrl.mode.value)]
        bucket = _RecordBucket(0)

        for k in range(n_ticks):
            t_ms = k * TICK_MS
            t_s = tick_times[k]

            period = t_ms // RECORD_PERIOD_MS
            if period != bucket.period:
                self._flush_bucket(bucket, self._idle_cmd)
                bucket = _RecordBucket(period)

            air_temp = float(env_temp[k])
            housing_ext = self.package_temp if self.package_temp is not None else air_temp

            laser_mw = self._laser_power(t_s, self.ctrl.laser_on)
            self._last_laser_mw = laser_mw
            sensors = Sensors(
                time_ms=t_ms,
                housing_temp_c=self.thermal.housing_temp_c,
                laser_power_mw=laser_mw,
                lc_signal_settled=self.lc_signal.settled,
                lc_idler_settled=self.lc_idler.settled,
            )
            prev_mode = self.ctrl.mode
            cmd = self.ctrl.tick(sensors)
            self._idle_cmd = cmd
            if cmd.mode is not prev_mode:
                mode_history.append((t_ms, cmd.mode.value))

            if cmd.lc_signal_mv is not None:
                self.lc_signal = command_voltage(self.lc_signal, cmd.lc_signal_mv / 1000.0)
                self.signal_angle = angle_from_voltage(
                    self.calibration, self.lc_signal.commanded_voltage
                )
            if cmd.lc_idler_mv is not None:
                self.lc_idler = command_voltage(self.lc_idler, cmd.lc_idler_mv / 1000.0)
            if cmd.lc_signal_mv is not None and cmd.scan_id:
                meta = scan_meta.setdefault(
                    cmd.scan_id, self._new_scan_meta(t_ms, cmd.pair)
                )
                meta["command_ms"][cmd.step] = t_ms

            if cmd.abort_scan:
                aborted += 1
                step_acc = {sk: v for sk, v in step_acc.items() if sk[0] != cmd.scan_id}
                scan_meta.pop(cmd.scan_id, None)

            if cmd.counting:
                rates = self._counting_rates(cmd.pair)
                sample = physics.sample_counts(rates, TICK_S, self.rng)
                key = (cmd.scan_id, cmd.step)
                sig_mv = round(self.lc_signal.commanded_voltage * 1000)
                idl_mv = round(self.lc_idler.commanded_voltage * 1000)
                acc = step_acc.setdefault(key, [0, 0, 0, sig_mv])
                acc[0] += sample.singles_1
                acc[1] += sample.singles_2
                acc[2] += sample.coincidences_raw
                bucket.s1 += sample.singles_1
                bucket.s2 += sample.singles_2
                bucket.coinc += sample.coincidences_raw
                bucket.flags |= telemetry.FLAG_COUNTING
                if bucket.count_ctx is None:
                    bucket.count_ctx = (cmd.scan_id, cmd.step, cmd.pair, sig_mv, idl_mv)
                meta = scan_meta[cmd.scan_id]
                if cmd.step not in meta["counted"]:
                    meta["counted"].add(cmd.step)
                    meta["settle"].add(t_ms - meta["command_ms"][cmd.step])

            if cmd.commit_scan:
                bucket.flags |= telemetry.FLAG_SCAN_COMMIT
                sig_mv = round(self.lc_signal.commanded_voltage * 1000)
                idl_mv = round(self.lc_idler.commanded_voltage * 1000)
                bucket.commit_ctx = (cmd.scan_id, cmd.step, cmd.pair, sig_mv, idl_mv)
                scans.append(self._fit_scan(cmd.scan_id, step_acc, scan_meta,
                                            t_ms, float(env_alt[k])))
                step_acc = {sk: v for sk, v in step_acc.items() if sk[0] != cmd.scan_id}
                scan_meta.pop(cmd.scan_id, None)

            if cmd.laser_on:
                bucket.flags |= telemetry.FLAG_LASER_ON
            if cmd.heater_watts > 0:
                bucket.flags |= telemetry.FLAG_HEATER_ON
            if cmd.mode is Mode.FAULT_HOLD:
                bucket.flags |= telemetry.FLAG_FAULT_HOLD
            if any(self.ctrl.bias_loops[ch].railed for ch in self.ctrl.active_channels()):
                bucket.flags |= telemetry.FLAG_BIAS_RAILED

            if not self.lc_signal.settled:
                self.lc_signal = step_settle(self.lc_signal, TICK_S)
            if not self.lc_idler.settled:
                self.lc_idler = step_settle(self.lc_idler, TICK_S)

            self.thermal.heater_watts = cmd.heater_watts
            self.thermal = thermal_power.step_thermal(
                self.thermal_params, self.thermal, housing_ext, TICK_S,
                cmd.active_modules,
            )
            total = thermal_power.total_power(
                self.ledger, cmd.active_modules, cmd.heater_watts, cmd.heater_mode
            )
            max_power = max(max_power, total)
            housing_min = min(housing_min, self.thermal.housing_temp_c)
            housing_max = max(housing_max, self.thermal.housing_temp_c)

            if self.package_temp is not None and scen.package is not None:
                pkg = scen.package
                flow = pkg.payload_watts + pkg.conductance_w_per_c * (
                    air_temp - self.package_temp
                )
                self.package_temp += TICK_S * flow / pkg.heat_capacity_j_per_c
                pkg_min = min(pkg_min, self.package_temp)
                pkg_max = max(pkg_max, self.package_temp)

        self._flush_bucket(bucket, self._idle_cmd)

        summary = RunSummary(
            scenario=scen.name,
            seed=self.seed,
            duration_s=scen.duration_s,
            scans=scans,
            aborted_scans=aborted,
            records_written=self.records_written,
            max_total_power_w=max_power,
            housing_temp_min_c=housing_min,
            housing_temp_max_c=housing_max,
            package_temp_min_c=pkg_min,
            package_temp_max_c=pkg_max,
            mode_history=mode_history,
            laser_activations=list(self.ctrl.laser_activations),
        )
        return self.flash, summary

    def _fit_scan(
        self,
        scan_id: int,
        step_acc: dict,
        scan_meta: dict,
        t_ms: int,
        altitude: float,
    ) -> ScanSummary:
        keys = sorted(k for k in step_acc if k[0] == scan_id)
        angles = np.array([
            angle_from_voltage(self.calibration, step_acc[k][3] / 1000.0) for k in keys
        ])
        dwell = self.ctrl.config.dwell_s
        s1 = np.array([step_acc[k][0] for k in keys])
        s2 = np.array([step_acc[k][1] for k in keys])
        c = np.array([step_acc[k][2] for k in keys])
        scan = analysis.ScanData(angles, dwell, s1, s2, c)
        corrected = analysis.correct_accidentals(scan, self.window_s)
        fit = analysis.fit_sinusoid(angles, corrected)
        meta = scan_meta.get(scan_id, {})
        return ScanSummary(
            scan_id=scan_id,
            pair=meta.get("pair", 0),
            t_start_ms=meta.get("start_ms", t_ms),
            t_commit_ms=t_ms,
            visibility=fit.visibility,
            raw_v=fit.raw_v,
            phase_rad=fit.phase_rad,
            rms_residual=fit.rms_residual,
            converged=fit.converged,
            altitude_m=altitude,
            settle_ms_values=tuple(sorted(meta.get("settle", ()))),
        )


def run_simulation(scenario: Scenario, seed: int | None = None) -> tuple[FlashImage, RunSummary]:
    """Run a scenario to completion; (scenario, seed) determines every byte."""
    engine = SimulationEngine(scenario, seed)
    return engine.run()


def summary_to_csv(summary: RunSummary, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "scan_id", "pair", "t_start_ms", "t_commit_ms", "visibility",
            "raw_v", "phase_rad", "rms_residual", "converged", "altitude_m",
        ])
        for s in summary.scans:
            w.writerow([
                s.scan_id, s.pair, s.t_start_ms, s.t_commit_ms,
                f"{s.visibility:.6f}", f"{s.raw_v:.6f}", f"{s.phase_rad:.6f}",
                f"{s.rms_residual:.3f}", int(s.converged), f"{s.altitude_m:.1f}",
            ])
