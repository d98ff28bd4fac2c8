"""State machine, bias feedback, laser monitor, and the scan routine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsat import controller
from pairsat.controller import (
    BIAS_SETPOINT,
    FAULT_HOLD_S,
    IDLER_VOLTAGES_MV,
    PAIR_1_4,
    PAIR_2_3,
    PAIR_CHANNELS,
    SCAN_VOLTAGES_MV,
    TICK_MS,
    ApdBiasLoop,
    Commands,
    FlightController,
    LaserMonitor,
    Mode,
    ScanConfig,
    Sensors,
    apd_bias_step,
    bench_rates,
    laser_stable,
    run_scan,
    scan_voltages,
    thermal_gate,
)
from pairsat.lc_optics import CALIBRATION, SETTLE_TIME_MS, angle_from_voltage
from pairsat.physics import ApdParams, SourceParams, avalanche_amplitude
from pairsat.thermal_power import HEATER_CAP_IDLE_W, HEATER_CAP_OPERATING_W, heater_cap, total_power


def test_thermal_gate_window():
    assert thermal_gate(25.0) is Mode.LASER_STABILIZING
    assert thermal_gate(20.0) is Mode.LASER_STABILIZING
    assert thermal_gate(30.0) is Mode.LASER_STABILIZING
    assert thermal_gate(35.0) is Mode.WAIT_COOL
    assert thermal_gate(15.0) is Mode.HEATING


def test_laser_monitor_readiness():
    # sample times arrive as integer milliseconds, same as the flight loop
    mon = LaserMonitor()
    first_ready = None
    for i in range(240):
        mon.add_sample(i * 50 / 1000.0, 9.0)
        if first_ready is None and laser_stable(mon) is not None:
            first_ready = i
    assert first_ready is not None
    # the 10 s window needs ~201 ticks; eviction rounding may cost a couple
    assert 200 <= first_ready <= 206
    assert laser_stable(mon) is True


def test_laser_monitor_flags_dip():
    mon = LaserMonitor()
    for i in range(240):
        p = 9.0 * (0.8 if 120 <= i < 130 else 1.0)  # 20 percent dip
        mon.add_sample(i * 50 / 1000.0, p)
    assert laser_stable(mon) is False
    mild = LaserMonitor()
    for i in range(240):
        p = 9.0 * (1.0 + 0.02 * math.sin(i))  # within 5 percent band
        mild.add_sample(i * 50 / 1000.0, p)
    assert laser_stable(mild) is True


def _reference_deviation(monitor):
    """Largest deviation from the window median relative to the median, or
    None when the median is not positive: the stability check as a plain
    median and maximum deviation."""
    powers = [p for _, p in monitor.samples]
    med = float(np.median(powers))
    if med <= 0:
        return None
    return max(abs(p - med) for p in powers) / med


# the edges of the band a stable 9 mW window at 5 % re-centres on, and the
# float beyond each edge on either side
_BAND_EDGES = [edge for bound in controller.band_around(9.0, 0.05)
               for edge in (math.nextafter(bound, -math.inf), bound,
                            math.nextafter(bound, math.inf))]

# a few exact values repeat often (equal powers, the 5 % threshold's edges,
# the band's edges, a 20 % dip, a dead laser); the rest are arbitrary finite
# powers
_powers = st.one_of(
    st.sampled_from([9.0, 9.0 * 0.95, 9.0 * 1.05, 9.0 * 0.8, 0.0, *_BAND_EDGES]),
    st.floats(8.0, 10.0),
    st.floats(-1e300, 1e300, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    # times on a 25 ms grid, so a sample often lies exactly one window before
    # the newest one and the window counts as full (the flight loop's 50 ms
    # ticks do the same); the jittered spacing gives odd and even lengths
    window_s=st.integers(2, 40).map(lambda k: k * 25 / 1000.0),
    threshold=st.one_of(st.just(0.05), st.floats(0.0, 0.5)),
    # (ms since the previous sample on the grid, ms since it with jitter,
    # power); `jitter` picks which spacing the run uses
    samples=st.lists(
        st.tuples(st.sampled_from([25, 50, 75, 100]), st.integers(1, 120), _powers),
        min_size=20, max_size=120,
    ),
    jitter=st.booleans(),
    clear_before=st.sets(st.integers(0, 119), max_size=3),
)
def test_laser_stable_matches_median_reference(window_s, threshold, samples, jitter,
                                               clear_before):
    mon = LaserMonitor(window_s=window_s, threshold=threshold)
    t_ms = 0
    for i, (grid_ms, jitter_ms, power) in enumerate(samples):
        if i in clear_before:
            mon.clear()
        t_ms += jitter_ms if jitter else grid_ms
        mon.add_sample(t_ms / 1000.0, power)
        # full once the kept samples span the window; with jittered times
        # they rarely do
        kept = [t for t, _ in mon.samples]
        assert kept[-1] == t_ms / 1000.0
        assert mon.ready() == (len(kept) >= 2 and kept[-1] - kept[0] >= window_s - 1e-9)
        if not mon.ready():
            assert laser_stable(mon) is None
            continue
        deviation = _reference_deviation(mon)
        thresholds = [threshold]
        if deviation is not None:
            # the reference's own deviation, and the float just below it,
            # put the threshold exactly on the boundary from both sides
            thresholds += [deviation, math.nextafter(deviation, -math.inf)]
        for mon.threshold in thresholds:
            expected = deviation is not None and deviation <= mon.threshold
            assert laser_stable(mon) is expected


@pytest.mark.parametrize("lo, hi, threshold", [
    (9.0, 9.0, -5e-324),  # the float below 0
    (0.25, 0.25, -5e-324),  # its product with lo rounds to -0.0
    (9.0, 9.0, -0.01),
    (9.0, 9.0, math.nan),
    (math.nan, 9.0, 0.05),
    (9.0, math.nan, 0.05),
    (0.0, 0.0, 0.05),
    (-1.0, -1.0, 0.05),
    (9.0, math.inf, 0.05),
    (math.inf, math.inf, 0.05),
    (*controller.EMPTY_BAND, 0.05),
    (9.0, 8.0, 0.05),  # hi below lo: empty
    # equal powers this large sum to inf, so an even window's median is inf
    (2.0**1023, 2.0**1023, 0.05),
    (9.0, 9.0 * 1.026, 0.05),  # wider than the bound
])
def test_band_certifies_rejects(lo, hi, threshold):
    assert not controller.band_certifies(lo, hi, threshold)


@pytest.mark.parametrize("median, threshold", [
    (9.0, 0.05), (9.0, 0.0), (5e-324, 0.05), (1e-310, 0.3), (1e300, 1.0), (1e300, 7.0),
    (math.nextafter(2.0**1023 / 1.2, 0.0), 0.05),
])
def test_band_around_certifies(median, threshold):
    lo, hi = controller.band_around(median, threshold)
    assert lo <= median <= hi
    assert controller.band_certifies(lo, hi, threshold)
    if threshold == 0.0:  # a zero-width band: equal powers only
        assert lo == hi == median


def _oracle_stable(powers, threshold):
    """The stability rule as a plain np.median and largest deviation."""
    med = float(np.median(powers))
    return med > 0 and max(abs(p - med) for p in powers) / med <= threshold


@st.composite
def _certified_window(draw):
    """(threshold, lo, hi, powers): a band that certifies, either the band
    around a median or the widest band from its lo that certifies, and a
    window of powers in it, its edges and the floats just inside them often."""
    threshold = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.05, 1.0, 5e-324]))
    median = draw(st.floats(5e-324, 1e300) | st.sampled_from([9.0, 5e-324, 1e-310]))
    if draw(st.booleans()):
        lo, hi = controller.band_around(median, threshold)
    else:
        lo, hi = median, median + min(threshold, 1.0) * median / 2
        while not controller.band_certifies(lo, hi, threshold):
            hi = math.nextafter(hi, -math.inf)
        assert not controller.band_certifies(lo, math.nextafter(hi, math.inf), threshold)
    assert controller.band_certifies(lo, hi, threshold)
    edges = [lo, hi, min(math.nextafter(lo, math.inf), hi), max(math.nextafter(hi, -math.inf), lo)]
    powers = draw(st.lists(st.sampled_from(edges) | st.floats(lo, hi), min_size=2, max_size=40))
    return threshold, lo, hi, powers


@settings(max_examples=500, deadline=None)
@given(window=_certified_window())
def test_a_certified_band_holds_only_stable_windows(window):
    # the certificate's proof, against a median taken without the monitor
    threshold, lo, hi, powers = window
    assert _oracle_stable(powers, threshold)
    # and the monitor, holding that band, reads the same without a median
    mon = LaserMonitor(window_s=len(powers) - 1, threshold=threshold)
    mon.band = lo, hi
    for t_s, power in enumerate(powers):
        mon.add_sample(float(t_s), power)
    assert mon.outside_t == -math.inf
    assert laser_stable(mon) is True


def test_on_the_tick_grid_the_span_rule_alone_decides_fullness():
    # The engine samples every laser-on tick on the 50 ms grid, from the
    # clear that turned the laser on. Cleared at each tick offset of one
    # 10 s window, and fed three windows of ticks, the monitor's span rule
    # reads full on the same ticks as the span rule together with a second
    # rule, full once the sample dropped last lies more than a window back:
    # on this grid the second rule never decides alone.
    window_s = 10.0
    mon = LaserMonitor(window_s=window_s)
    ticks_after_a_drop = 0
    for offset in range(200):
        mon.clear()
        since_clear = []
        for k in range(offset, offset + 600):
            t_s = k * 50 / 1000
            mon.add_sample(t_s, 9.0)
            since_clear.append(t_s)
            n_kept = len(mon.samples)
            span = n_kept >= 2 and t_s - mon.samples[0][0] >= window_s - 1e-9
            after_drop = (n_kept >= 2 and len(since_clear) > n_kept
                          and t_s - since_clear[-n_kept - 1] > window_s + 1e-9)
            ticks_after_a_drop += after_drop
            assert mon.ready() == span == (span or after_drop), (offset, k)
    # the drop rule held on more than half the 120 000 ticks, never alone
    assert ticks_after_a_drop > 60_000


def test_bias_step_holds_at_setpoint():
    p = ApdParams()
    bias = 122.0  # 10 V overvoltage gives amplitude exactly at setpoint
    measured = avalanche_amplitude(p, bias, 25.0)
    assert measured == pytest.approx(BIAS_SETPOINT)
    new_bias, integ = apd_bias_step(p, measured, BIAS_SETPOINT, bias, 0.0)
    assert new_bias == pytest.approx(bias)
    assert integ == pytest.approx(0.0)


def test_bias_step_clamps_at_rail():
    p = ApdParams()
    bias, _ = apd_bias_step(p, 0.0, BIAS_SETPOINT, 129.9, integrator=50.0)
    assert bias == 130.0
    bias, _ = apd_bias_step(p, 5.0, BIAS_SETPOINT, 100.1, integrator=-50.0)
    assert bias == 100.0
    with pytest.raises(ValueError):
        apd_bias_step(p, 1.0, BIAS_SETPOINT, 99.0, 0.0)


def test_bias_loop_converges_within_50_steps():
    # temperatures whose converged bias sits inside the 100..130 V rails
    for temp in (-6.0, 0.0, 25.0, 36.0):
        loop = ApdBiasLoop(ApdParams())
        for _ in range(50):
            loop.step(temp)
        amp = avalanche_amplitude(loop.params, loop.bias, temp)
        assert abs(amp - BIAS_SETPOINT) / BIAS_SETPOINT < 0.01, temp


def test_bias_temperature_step_shifts_seven_volts():
    loop = ApdBiasLoop(ApdParams())
    for _ in range(200):
        loop.step(25.0)
    b25 = loop.bias
    for _ in range(200):
        loop.step(35.0)
    assert loop.bias - b25 == pytest.approx(7.0, abs=1e-3)


def test_converged_amplitude_independent_of_temperature():
    # within the non-railed band the servo hides the breakdown drift
    amps = []
    for temp in np.linspace(-6.0, 36.0, 9):
        loop = ApdBiasLoop(ApdParams())
        for _ in range(300):
            loop.step(float(temp))
        assert 100.0 < loop.bias < 130.0
        amps.append(avalanche_amplitude(loop.params, loop.bias, float(temp)))
    for a in amps:
        assert abs(a - BIAS_SETPOINT) / BIAS_SETPOINT < 0.01


def test_bias_loop_rails_cold_and_recovers():
    loop = ApdBiasLoop(ApdParams())
    assert not loop.railed
    # -40 C pushes the required bias below the lower rail
    for _ in range(200):
        loop.step(-40.0)
        assert loop.railed == (loop.bias == loop.params.bias_min_v)
    assert loop.railed
    # the integrator did not wind up at the rail: the first step at 25 C
    # leaves it, and within 50 steps the loop settles off both rails
    loop.step(25.0)
    assert not loop.railed
    for _ in range(50):
        loop.step(25.0)
    assert not loop.railed
    amp = avalanche_amplitude(loop.params, loop.bias, 25.0)
    assert abs(amp - BIAS_SETPOINT) / BIAS_SETPOINT < 0.01


def test_bias_integrator_does_not_wind_up_at_a_rail():
    # 200 steps at the lower rail leave no integral to carry the loop across
    # its range: on the way back at 25 C no step reaches the upper rail
    loop = ApdBiasLoop(ApdParams())
    for _ in range(200):
        loop.step(-40.0)
    assert (loop.bias, loop.integrator) == (loop.params.bias_min_v, 0.0)
    for _ in range(100):
        loop.step(25.0)
        assert loop.bias < loop.params.bias_max_v
    amp = avalanche_amplitude(loop.params, loop.bias, 25.0)
    assert abs(amp - BIAS_SETPOINT) / BIAS_SETPOINT < 0.01


def test_scan_voltages_cover_revolution():
    # steps are uniform in drive voltage; the angle axis inherits the
    # calibration nonlinearity, which is what makes the raw trace look
    # stretched before the angle-domain fit straightens it out
    cal = CALIBRATION
    mvs = scan_voltages(ScanConfig())
    assert list(SCAN_VOLTAGES_MV) == mvs
    assert len(mvs) == 36
    assert mvs[0] == round(cal.v_min * 1000)
    assert mvs[-1] == round(cal.v_max * 1000)
    steps = np.diff(mvs)
    assert steps.max() - steps.min() <= 1  # integer rounding only
    angles = [angle_from_voltage(cal, mv / 1000.0) for mv in mvs]
    assert angles[0] == 0.0
    assert angles[-1] == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert all(b > a for a, b in zip(angles, angles[1:]))
    assert angles[-1] - angles[0] > math.pi  # fit precondition with margin


def test_scan_config_time_budget():
    with pytest.raises(ValueError):
        ScanConfig(n_steps=40, dwell_s=0.45)  # 40 * 0.75 = 30 s, not < 30
    # the controller counts a dwell down in whole 50 ms ticks: 0.47 s would
    # never reach 0, and 0 or less would count nothing
    for dwell_s in [0.47, 0.0, -0.1, math.nan]:
        with pytest.raises(ValueError, match=f"dwell_s {dwell_s} "):
            ScanConfig(dwell_s=dwell_s)
    cfg = ScanConfig()
    assert cfg.n_steps * (SETTLE_TIME_MS / 1000 + cfg.dwell_s) < 30.0


def test_idler_voltage_pair_mapping():
    mv14, mv23 = IDLER_VOLTAGES_MV[PAIR_1_4], IDLER_VOLTAGES_MV[PAIR_2_3]
    # the commanded idler settings, as the flash carries them
    assert (mv14, mv23) == (0, 2555)
    a14 = angle_from_voltage(CALIBRATION, mv14 / 1000.0)
    a23 = angle_from_voltage(CALIBRATION, mv23 / 1000.0)
    # alternate pair sits behind the other splitter port, a quarter turn away
    assert abs((a23 - a14) - math.pi / 2.0) < 1e-3


def test_pair_channels():
    assert PAIR_CHANNELS[PAIR_1_4] == (0, 3)
    assert PAIR_CHANNELS[PAIR_2_3] == (1, 2)


def test_bench_rates_pair_phase_flip():
    src = SourceParams(phase_offset_rad=0.0)
    _, _, c14 = bench_rates(src, PAIR_1_4, (1.0, 1.0), 0.0)
    _, _, c23 = bench_rates(src, PAIR_2_3, (1.0, 1.0), 0.0)
    assert c14 > c23  # coincidence maximum for one pair is the other's minimum
    _, _, c14q = bench_rates(src, PAIR_1_4, (1.0, 1.0), math.pi / 2.0)
    assert c23 == pytest.approx(c14q, rel=1e-12)


def test_run_scan_records():
    rng = np.random.default_rng(2)
    angles, counts = run_scan(ScanConfig(), SourceParams(), rng)
    assert angles.tolist() == [angle_from_voltage(CALIBRATION, mv / 1000.0)
                               for mv in scan_voltages(ScanConfig())]
    assert counts.shape == (36, 3) and counts.dtype == np.int64
    assert (counts[:, 2] <= counts[:, :2].min(axis=1)).all()


def test_run_scan_single_step():
    rng = np.random.default_rng(2)
    angles, counts = run_scan(ScanConfig(n_steps=1), SourceParams(), rng)
    assert scan_voltages(ScanConfig(n_steps=1)) == [0]
    assert angles.tolist() == [angle_from_voltage(CALIBRATION, 0.0)]
    assert counts.shape == (1, 3)


def test_run_scan_visibility_definition_check():
    # direct scans reproduce the configured contrast once accidentals go
    rng = np.random.default_rng(31)
    from pairsat.analysis import ScanData, correct_accidentals, fit_sinusoid

    angles, counts = run_scan(ScanConfig(), SourceParams(), rng)
    fit = fit_sinusoid(angles, correct_accidentals(ScanData(angles, 0.45, *counts.T)))
    assert abs(fit.visibility - 0.95) < 0.04


def sensors_at(t_ms, temp=25.0, power=9.0, settled=True):
    return Sensors(time_ms=t_ms, housing_temp_c=temp, laser_power_mw=power, lc_settled=settled)


def test_cold_start_goes_heating():
    ctrl = FlightController()
    cmd = ctrl.tick(sensors_at(0, temp=-10.0))
    assert cmd.mode is Mode.HEATING
    assert cmd.heater_watts == 1.7
    assert not cmd.laser_on


def test_hot_start_waits_for_cooling():
    ctrl = FlightController()
    cmd = ctrl.tick(sensors_at(0, temp=35.0))
    assert cmd.mode is Mode.WAIT_COOL
    assert cmd.heater_watts == 0.0
    assert not cmd.laser_on


def test_laser_only_in_operating_modes():
    ctrl = FlightController()
    t = 0
    seen = set()
    for _ in range(40000):
        cmd = ctrl.tick(sensors_at(t))
        seen.add(cmd.mode)
        if cmd.laser_on:
            assert cmd.mode in (Mode.LASER_STABILIZING, Mode.SCANNING, Mode.STORING)
        t += TICK_MS
    assert Mode.SCANNING in seen and Mode.STORING in seen


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_laser_and_power_state_follow_the_mode(mode):
    operating = mode in (Mode.LASER_STABILIZING, Mode.SCANNING, Mode.STORING)
    cmd = Commands(mode)
    assert cmd.laser_on is operating
    # the laser sets the draw and the heater cap
    assert total_power(cmd.laser_on, 0.0) == (1.3 if operating else 0.3)
    assert heater_cap(cmd.laser_on) == (HEATER_CAP_OPERATING_W if operating else HEATER_CAP_IDLE_W)
    ctrl = FlightController()
    ctrl.mode = mode
    assert ctrl.laser_on is operating
    with pytest.raises(AttributeError):
        ctrl.laser_on = not operating


def run_to_first_commit(ctrl, t=0, power=9.0):
    settle = 0
    while True:
        cmd = ctrl.tick(sensors_at(t, settled=settle == 0))
        if cmd.lc_signal_mv is not None:
            settle = 6
        settle = max(0, settle - 1)
        t += TICK_MS
        if cmd.commit_scan:
            return cmd, t


def test_scan_commit_and_pair_alternation():
    ctrl = FlightController()
    first, t = run_to_first_commit(ctrl)
    assert first.pair == PAIR_1_4
    second, t = run_to_first_commit(ctrl, t)
    assert second.pair == PAIR_2_3
    assert second.scan_id == first.scan_id + 1
    third, _ = run_to_first_commit(ctrl, t)
    assert third.pair == PAIR_1_4


def test_counting_waits_for_the_settled_flag():
    ctrl = FlightController()
    t = 0
    # drive to scanning with the LCs never settling: no counting ever happens
    commands = []
    for _ in range(1000):
        cmd = ctrl.tick(sensors_at(t, settled=False))
        assert not cmd.counting
        if cmd.lc_signal_mv is not None:
            commands.append((cmd.lc_signal_mv, IDLER_VOLTAGES_MV[cmd.pair]))
        t += TICK_MS
    assert ctrl.mode is Mode.SCANNING
    # the one step command wrote both LCs, and the first settled tick counts
    assert commands == [(SCAN_VOLTAGES_MV[0], IDLER_VOLTAGES_MV[PAIR_1_4])]
    assert ctrl.tick(sensors_at(t)).counting


def test_laser_dip_aborts_scan_and_burns_id():
    ctrl = FlightController()
    t = 0
    scanning_seen = False
    aborted_id = None
    while aborted_id is None:
        power = 9.0
        if scanning_seen and t >= 15000:
            power = 6.0  # 33 percent dip mid-scan
        cmd = ctrl.tick(sensors_at(t, power=power))
        if cmd.mode is Mode.SCANNING:
            scanning_seen = True
        if cmd.abort_scan:
            aborted_id = cmd.scan_id
            assert cmd.mode is Mode.FAULT_HOLD
        t += TICK_MS
        assert t < 120000

    hold_start = t
    # fault hold lasts 30 s, then the machine re-gates and retries
    while ctrl.mode is Mode.FAULT_HOLD:
        ctrl.tick(sensors_at(t))
        t += TICK_MS
    assert t - hold_start == FAULT_HOLD_S * 1000
    retry, _ = run_to_first_commit(ctrl, t)
    assert retry.scan_id > aborted_id


def test_commands_while_heating_have_no_scan():
    ctrl = FlightController()
    cmd = ctrl.tick(sensors_at(0, temp=10.0))
    assert cmd.scan_id == 0
    assert cmd.lc_signal_mv is None
    assert not cmd.counting


def _fields(ctrl):
    """Every controller field, the monitor's and the bias loops' among them,
    as values that compare equal while nothing changes."""
    fields = {name: value.copy() if isinstance(value, (list, dict)) else value
              for name, value in vars(ctrl).items()}
    monitor = ctrl.monitor
    fields["monitor"] = (list(monitor.samples), monitor.band, monitor.outside_t)
    fields["bias_loops"] = [(loop.bias, loop.integrator, loop.railed) for loop in ctrl.bias_loops]
    return fields


HOLD_UNTIL_MS = 30_000


def _holding(mode, heater_watts):
    """A controller in `mode` with the heater at `heater_watts`, on pair 2-3;
    in FAULT_HOLD, with the hold ending at HOLD_UNTIL_MS."""
    ctrl = FlightController()
    ctrl.mode, ctrl.heater_watts, ctrl.pair = mode, heater_watts, PAIR_2_3
    if mode is Mode.FAULT_HOLD:
        ctrl.fault_until_ms = HOLD_UNTIL_MS
    return ctrl


def _is_held(ctrl, sensors):
    bound_c, below = ctrl.hold()
    temp = sensors.housing_temp_c
    return temp < bound_c if below else temp > bound_c


# each bound of a hold, and the float beyond it on either side
EDGE_TEMPS = [edge for bound in (20.0, 30.0)
              for edge in (math.nextafter(bound, -math.inf), bound,
                           math.nextafter(bound, math.inf))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from([Mode.HEATING, Mode.WAIT_COOL]),
    heater_watts=st.sampled_from([0.0, HEATER_CAP_IDLE_W]),
    temp=st.floats(-60.0, 80.0) | st.sampled_from(EDGE_TEMPS),
    t_ms=st.integers(0, 2 * HOLD_UNTIL_MS // TICK_MS).map(lambda k: k * TICK_MS),
    power=st.floats(0.0, 10.0),
    settled=st.booleans(),
)
def test_a_held_tick_changes_nothing_and_any_other_changes_the_mode_or_heater(
        mode, heater_watts, temp, t_ms, power, settled):
    ctrl = _holding(mode, heater_watts)
    sensors = Sensors(time_ms=t_ms, housing_temp_c=temp, laser_power_mw=power,
                      lc_settled=settled)
    # HEATING holds only with the heater on, WAIT_COOL only with it off
    if (mode, heater_watts) in [(Mode.HEATING, 0.0), (Mode.WAIT_COOL, HEATER_CAP_IDLE_W)]:
        assert ctrl.hold() is None
        held = False
    else:
        held = _is_held(ctrl, sensors)
    before = _fields(ctrl)
    cmd = ctrl.tick(sensors)
    if held:
        assert cmd == Commands(mode, heater_watts, pair=PAIR_2_3)
        assert _fields(ctrl) == before
    else:
        assert (ctrl.mode, ctrl.heater_watts) != (mode, heater_watts)


@pytest.mark.parametrize("mode, heater_watts, inside, beyond", [
    (Mode.HEATING, HEATER_CAP_IDLE_W, math.nextafter(20.0, -math.inf), 20.0),
    (Mode.WAIT_COOL, 0.0, math.nextafter(30.0, math.inf), 30.0),
    (Mode.FAULT_HOLD, HEATER_CAP_IDLE_W, 22.0, math.nextafter(22.0, math.inf)),
    (Mode.FAULT_HOLD, 0.0, 20.0, math.nextafter(20.0, -math.inf)),
], ids=["heating", "wait-cool", "fault-hold-heater-on", "fault-hold-heater-off"])
def test_a_hold_ends_on_the_first_float_across_its_bound(mode, heater_watts, inside, beyond):
    # the engine decides a fault hold tick by tick, so its cases check only
    # that the idle heater rule toggles on the first float across 22 C and 20 C
    for temp, held in [(inside, True), (beyond, False)]:
        ctrl = _holding(mode, heater_watts)
        sensors = sensors_at(0, temp=temp)
        if mode is not Mode.FAULT_HOLD:
            assert _is_held(ctrl, sensors) is held
        ctrl.tick(sensors)
        assert ((ctrl.mode, ctrl.heater_watts) == (mode, heater_watts)) is held


@pytest.mark.parametrize("heater_watts", [0.0, HEATER_CAP_IDLE_W])
def test_a_fault_hold_ends_on_the_tick_at_its_end(heater_watts):
    for t_ms, kept in [(HOLD_UNTIL_MS - TICK_MS, True), (HOLD_UNTIL_MS, False)]:
        ctrl = _holding(Mode.FAULT_HOLD, heater_watts)
        ctrl.tick(sensors_at(t_ms, temp=21.0))
        assert (ctrl.mode is Mode.FAULT_HOLD) is kept


@pytest.mark.parametrize("mode", [Mode.INIT, Mode.FAULT_HOLD, *controller.OPERATING_MODES],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("heater_watts", [0.0, HEATER_CAP_OPERATING_W, HEATER_CAP_IDLE_W])
def test_no_hold_in_init_or_with_the_laser_on(mode, heater_watts):
    assert _holding(mode, heater_watts).hold() is None
