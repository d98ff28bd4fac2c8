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
    PAIR_1_4,
    PAIR_2_3,
    PAIR_CHANNELS,
    TICK_MS,
    ApdBiasLoop,
    Commands,
    FlightController,
    Gate,
    LaserMonitor,
    Mode,
    OpticalBench,
    ScanConfig,
    Sensors,
    apd_bias_step,
    bench_rates,
    idler_voltage_mv,
    laser_stable,
    run_scan,
    scan_voltages,
    thermal_gate,
)
from pairsat.lc_optics import angle_from_voltage, default_calibration
from pairsat.physics import ApdParams, SourceParams, avalanche_amplitude


def test_thermal_gate_window():
    assert thermal_gate(25.0) is Gate.PROCEED
    assert thermal_gate(20.0) is Gate.PROCEED
    assert thermal_gate(30.0) is Gate.PROCEED
    assert thermal_gate(35.0) is Gate.WAIT_COOL
    assert thermal_gate(15.0) is Gate.HEAT


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


# a few exact values repeat often (equal powers, the 5 % band edges, a 20 %
# dip, a dead laser); the rest are arbitrary finite powers
_powers = st.one_of(
    st.sampled_from([9.0, 9.0 * 0.95, 9.0 * 1.05, 9.0 * 0.8, 0.0]),
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
    # (milliseconds since the previous sample, power)
    samples=st.lists(
        st.tuples(st.sampled_from([25, 50, 75, 100]), _powers), min_size=20, max_size=120
    ),
    clear_before=st.sets(st.integers(0, 119), max_size=3),
)
def test_laser_stable_matches_median_reference(window_s, threshold, samples, clear_before):
    mon = LaserMonitor(window_s=window_s, threshold=threshold)
    t_ms = 0
    for i, (dt_ms, power) in enumerate(samples):
        if i in clear_before:
            mon.clear()
        t_ms += dt_ms
        mon.add_sample(t_ms / 1000.0, power)
        assert mon.sorted_powers == sorted(p for _, p in mon.samples)
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


def test_bias_step_holds_at_setpoint():
    p = ApdParams()
    bias = 122.0  # 10 V overvoltage gives amplitude exactly at setpoint
    measured = avalanche_amplitude(p, bias, 25.0)
    assert measured == pytest.approx(BIAS_SETPOINT)
    new_bias, integ = apd_bias_step(p, measured, BIAS_SETPOINT, bias)
    assert new_bias == pytest.approx(bias)
    assert integ == pytest.approx(0.0)


def test_bias_step_clamps_at_rail():
    p = ApdParams()
    bias, _ = apd_bias_step(p, 0.0, BIAS_SETPOINT, 129.9, integrator=50.0)
    assert bias == 130.0
    bias, _ = apd_bias_step(p, 5.0, BIAS_SETPOINT, 100.1, integrator=-50.0)
    assert bias == 100.0
    with pytest.raises(ValueError):
        apd_bias_step(p, 1.0, BIAS_SETPOINT, 99.0)


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


def test_bias_rail_fault_after_60_s():
    loop = ApdBiasLoop(ApdParams())
    # -40 C pushes the required bias below the lower rail
    for _ in range(int(59.0 / 0.05)):
        loop.step(-40.0)
    assert loop.railed and not loop.fault
    for _ in range(40):
        loop.step(-40.0)
    assert loop.fault


def test_scan_voltages_cover_revolution():
    # steps are uniform in drive voltage; the angle axis inherits the
    # calibration nonlinearity, which is what makes the raw trace look
    # stretched before the angle-domain fit straightens it out
    cfg = ScanConfig()
    cal = default_calibration()
    mvs = scan_voltages(cfg, cal)
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
    cfg = ScanConfig()
    assert cfg.n_steps * (cfg.settle_s + cfg.dwell_s) < 30.0


def test_idler_voltage_pair_mapping():
    cfg = ScanConfig()
    cal = default_calibration()
    mv14 = idler_voltage_mv(PAIR_1_4, cfg, cal)
    mv23 = idler_voltage_mv(PAIR_2_3, cfg, cal)
    a14 = angle_from_voltage(cal, mv14 / 1000.0)
    a23 = angle_from_voltage(cal, mv23 / 1000.0)
    # alternate pair sits behind the other splitter port, a quarter turn away
    assert abs((a23 - a14) - math.pi / 2.0) < 1e-3


def test_pair_channels():
    assert PAIR_CHANNELS[PAIR_1_4] == (0, 3)
    assert PAIR_CHANNELS[PAIR_2_3] == (1, 2)


def test_bench_rates_pair_phase_flip():
    src = SourceParams(phase_offset_rad=0.0)
    b14 = OpticalBench(source=src, pair=PAIR_1_4)
    b23 = OpticalBench(source=src, pair=PAIR_2_3)
    _, _, c14 = bench_rates(b14, 0.0)
    _, _, c23 = bench_rates(b23, 0.0)
    assert c14 > c23  # coincidence maximum for one pair is the other's minimum
    _, _, c14q = bench_rates(b14, math.pi / 2.0)
    assert c23 == pytest.approx(c14q, rel=1e-12)


def test_run_scan_records():
    rng = np.random.default_rng(2)
    records = run_scan(ScanConfig(), OpticalBench(), rng)
    assert len(records) == 36
    assert [r.step for r in records] == list(range(36))
    assert all(r.pair == PAIR_1_4 for r in records)
    assert all(
        r.counts.coincidences_raw <= min(r.counts.singles_1, r.counts.singles_2)
        for r in records
    )


def test_run_scan_single_step():
    rng = np.random.default_rng(2)
    records = run_scan(ScanConfig(n_steps=1), OpticalBench(), rng)
    assert len(records) == 1
    assert records[0].lc_voltage_mv == 0


def test_run_scan_fault_discards_everything():
    rng = np.random.default_rng(2)
    bench = OpticalBench(fault_at_step=20)
    assert run_scan(ScanConfig(), bench, rng) == []


def test_run_scan_visibility_definition_check():
    # direct scans reproduce the configured contrast once accidentals go
    rng = np.random.default_rng(31)
    from pairsat.analysis import ScanData, correct_accidentals, fit_sinusoid

    records = run_scan(ScanConfig(), OpticalBench(), rng)
    angles = np.array([r.analyzer_angle_rad for r in records])
    scan = ScanData(
        angles_rad=angles,
        dwell_s=0.45,
        singles_1=np.array([r.counts.singles_1 for r in records]),
        singles_2=np.array([r.counts.singles_2 for r in records]),
        coinc_raw=np.array([r.counts.coincidences_raw for r in records]),
    )
    fit = fit_sinusoid(angles, correct_accidentals(scan, 9e-9))
    assert abs(fit.visibility - 0.95) < 0.04


def sensors_at(t_ms, temp=25.0, power=9.0, sig=True, idl=True):
    return Sensors(
        time_ms=t_ms, housing_temp_c=temp, laser_power_mw=power,
        lc_signal_settled=sig, lc_idler_settled=idl,
    )


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


def run_to_first_commit(ctrl, t=0, power=9.0):
    sig_settle = 0
    idl_settle = 0
    while True:
        cmd = ctrl.tick(sensors_at(t, sig=sig_settle == 0, idl=idl_settle == 0))
        if cmd.lc_signal_mv is not None:
            sig_settle = 6
        if cmd.lc_idler_mv is not None:
            idl_settle = 6
        sig_settle = max(0, sig_settle - 1)
        idl_settle = max(0, idl_settle - 1)
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


def test_counting_requires_both_settled():
    ctrl = FlightController()
    t = 0
    # drive to scanning with devices never settling: no counting ever happens
    for _ in range(1000):
        cmd = ctrl.tick(sensors_at(t, sig=False, idl=True))
        assert not cmd.counting
        t += TICK_MS
    assert ctrl.mode is Mode.SCANNING


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
    assert t - hold_start >= FAULT_HOLD_S * 1000
    retry, _ = run_to_first_commit(ctrl, t)
    assert retry.scan_id > aborted_id


def test_commands_while_heating_have_no_scan():
    ctrl = FlightController()
    cmd = ctrl.tick(sensors_at(0, temp=10.0))
    assert cmd.scan_id == 0
    assert cmd.lc_signal_mv is None
    assert not cmd.counting
