"""Environment profiles, scenario construction, and full engine runs."""

import math
import os

import numpy as np
import pytest

from pairsat import telemetry
from pairsat.scenarios import (
    ATMOSPHERE_SCALE_HEIGHT_M,
    BALLOON_CEILING_M,
    BALLOON_GROUND_ALT_M,
    SEA_LEVEL_PRESSURE_MBAR,
    EnvironmentProfile,
    PackageNode,
    SimulationEngine,
    balloon_flight_times,
    balloon_profile,
    lab_profile,
    leo_cycle_profile,
    load_profile_csv,
    make_scenario,
    run_simulation,
    save_profile_csv,
    thermal_vac_profile,
)


def test_lab_profile_constant():
    p = lab_profile(480.0)
    assert p.duration_s == 480.0
    assert np.all(p.temp_c == 22.0)
    assert np.all(p.pressure_mbar == SEA_LEVEL_PRESSURE_MBAR)
    assert np.all(p.altitude_m == 0.0)
    assert np.all(p.accel_g == 1.0)
    with pytest.raises(ValueError):
        lab_profile(0.0)


def test_leo_profile_cycle():
    p = leo_cycle_profile(12000.0)
    assert p.temp_c.max() == pytest.approx(20.0, abs=1e-9)
    assert p.temp_c.min() == pytest.approx(-5.0, abs=1e-9)
    # default phase starts the cycle at the hot peak
    assert p.temp_c[0] == pytest.approx(20.0)
    cold_start = leo_cycle_profile(12000.0, phase_s=3000.0)
    assert cold_start.temp_c[0] == pytest.approx(-5.0)
    assert np.all(p.pressure_mbar == 0.0)
    assert np.all(p.altitude_m == 400e3)


def test_thermal_vac_profile():
    p = thermal_vac_profile(86400.0)
    assert p.temp_c.max() == pytest.approx(40.0, abs=1e-9)
    assert p.temp_c.min() == pytest.approx(-10.0, abs=1e-9)
    assert np.all(p.pressure_mbar == 1e-7)
    with pytest.raises(ValueError):
        thermal_vac_profile(3600.0)


def test_balloon_profile_shape():
    t_release, t_burst, t_land = balloon_flight_times()
    assert t_release == 900.0
    # 35 km climb at 5 m/s
    assert t_burst == pytest.approx(900.0 + 35000.0 / 5.0)
    assert t_land > t_burst
    p = balloon_profile()
    assert p.altitude_m.max() == BALLOON_CEILING_M
    assert p.altitude_m.min() == BALLOON_GROUND_ALT_M
    # ascent is monotone between release and burst
    mask = (p.t_s >= t_release) & (p.t_s <= t_burst)
    assert np.all(np.diff(p.altitude_m[mask]) >= 0)
    # exponential atmosphere at the ceiling
    ceiling_p = SEA_LEVEL_PRESSURE_MBAR * math.exp(
        -BALLOON_CEILING_M / ATMOSPHERE_SCALE_HEIGHT_M
    )
    assert p.pressure_mbar.min() == pytest.approx(ceiling_p, rel=1e-9)
    assert p.accel_g.max() == 23.0
    assert 20.0 in p.accel_g
    # spikes are isolated samples, the rest of the flight sits at 1 g
    assert np.median(p.accel_g) == 1.0


def test_balloon_package_node_reproduces_knots():
    # forward-integrate the package node against the profile's air
    # temperature; it must land back on the internal control points
    pkg = PackageNode()
    p = balloon_profile(pkg)
    dt = 1.0
    temp = 12.0
    trace = {0.0: temp}
    t = 0.0
    while t < p.duration_s:
        air = p.sample(t)[0]
        flow = pkg.conductance_w_per_c * (air - temp) + pkg.payload_watts
        temp += flow * dt / pkg.heat_capacity_j_per_c
        t += dt
        trace[round(t, 6)] = temp
    for knot_t, knot_T in [(900.0, 12.0), (3200.0, 1.2), (6000.0, 7.5), (7900.0, 8.0)]:
        assert trace[knot_t] == pytest.approx(knot_T, abs=0.05), knot_t


def test_profile_validation():
    t = np.array([0.0, 1.0, 2.0])
    ones = np.ones(3)
    with pytest.raises(ValueError):
        EnvironmentProfile(t, ones[:2], ones, ones, ones)
    with pytest.raises(ValueError):
        EnvironmentProfile(t[:1], ones[:1], ones[:1], ones[:1], ones[:1])
    with pytest.raises(ValueError):
        EnvironmentProfile(np.array([0.0, 2.0, 1.0]), ones, ones, ones, ones)
    with pytest.raises(ValueError):
        EnvironmentProfile(t, ones, -ones, ones, ones)


def test_profile_sample_interpolates():
    p = EnvironmentProfile(
        t_s=np.array([0.0, 10.0]),
        temp_c=np.array([0.0, 20.0]),
        pressure_mbar=np.array([1000.0, 500.0]),
        altitude_m=np.array([0.0, 1000.0]),
        accel_g=np.array([1.0, 3.0]),
    )
    temp, pres, alt, acc = p.sample(5.0)
    assert temp == pytest.approx(10.0)
    assert pres == pytest.approx(750.0)
    assert alt == pytest.approx(500.0)
    assert acc == pytest.approx(2.0)
    # clamped beyond the ends
    assert p.sample(100.0)[0] == pytest.approx(20.0)


def test_profile_csv_round_trip(tmp_path):
    p = balloon_profile()
    path = os.fspath(tmp_path / "profile.csv")
    save_profile_csv(p, path)
    q = load_profile_csv(path)
    assert np.array_equal(p.t_s, q.t_s)
    assert np.array_equal(p.temp_c, q.temp_c)
    assert np.array_equal(p.pressure_mbar, q.pressure_mbar)
    assert np.array_equal(p.altitude_m, q.altitude_m)
    assert np.array_equal(p.accel_g, q.accel_g)


def test_profile_csv_errors(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("time,stuff\n0,1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_profile_csv(os.fspath(bad_header))

    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text(
        "t_s,temp_c,pressure_mbar,altitude_m,accel_g\n"
        "0,22,1013,0,1\n"
        "ten,22,1013,0,1\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        load_profile_csv(os.fspath(bad_row))

    backwards = tmp_path / "backwards.csv"
    backwards.write_text(
        "t_s,temp_c,pressure_mbar,altitude_m,accel_g\n"
        "10,22,1013,0,1\n"
        "5,22,1013,0,1\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        load_profile_csv(os.fspath(backwards))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_profile_csv(os.fspath(empty))


def test_make_scenario_variants(tmp_path):
    lab = make_scenario("lab")
    assert lab.duration_s == 480.0
    assert lab.initial_housing_c == 22.0
    assert lab.source.true_visibility == 0.95

    leo = make_scenario("leo")
    assert leo.initial_housing_c == -5.0
    assert leo.profile.temp_c[0] == pytest.approx(-5.0)

    balloon = make_scenario("balloon")
    assert balloon.package is not None
    assert balloon.initial_package_c == 12.0
    assert balloon.source.true_visibility == 0.93
    assert balloon.duration_s == pytest.approx(9610.0)

    path = os.fspath(tmp_path / "custom.csv")
    save_profile_csv(lab_profile(60.0), path)
    custom = make_scenario("custom", profile_path=path)
    assert custom.duration_s == 60.0

    with pytest.raises(ValueError):
        make_scenario("orbit")
    with pytest.raises(ValueError):
        make_scenario("custom")


# a scan id lasts at least one 36 x 0.75 s scan, so 65 535 ids need 1 769 445 s
SCAN_ID_LIMIT_S = 65535 * 27.0


def test_engine_accepts_run_at_scan_id_limit():
    SimulationEngine(make_scenario("lab", duration_s=SCAN_ID_LIMIT_S))


def test_engine_rejects_run_past_scan_id_limit():
    # raised by the constructor, before a single tick is simulated
    with pytest.raises(ValueError, match="scan_id"):
        SimulationEngine(make_scenario("lab", duration_s=SCAN_ID_LIMIT_S + 1.0))


def test_engine_rejects_run_past_time_ms_limit():
    # 2**32 - 1 ms is 4 294 967.295 s; the last 8 Hz record here is 4 294 967 875 ms
    with pytest.raises(ValueError, match="time_ms"):
        SimulationEngine(make_scenario("lab", duration_s=4_294_968.0))


@pytest.fixture(scope="module")
def lab_run():
    """One 120 s bench run, shared across the checks below."""
    scenario = make_scenario("lab", duration_s=120.0, seed=7)
    return run_simulation(scenario, seed=7)


class TestLabRun:
    def test_scan_cadence(self, lab_run):
        _, summary = lab_run
        assert [s.scan_id for s in summary.scans] == [1, 2, 3, 4]
        assert [s.pair for s in summary.scans] == [0, 1, 0, 1]
        for s in summary.scans:
            # 36 steps of 0.3 s settle + 0.45 s dwell, commit on the next tick
            assert s.span_ms == 27000
            assert s.settle_ms_values == (300,)
        assert summary.scans[0].t_start_ms == 10100  # 10 s laser warm-up
        assert summary.aborted_scans == 0

    def test_visibilities_near_source(self, lab_run):
        _, summary = lab_run
        for v in summary.visibilities:
            assert 0.92 < v < 0.98

    def test_power_and_thermal(self, lab_run):
        _, summary = lab_run
        # warm bench: heater never needed
        assert summary.max_total_power_w == pytest.approx(1.3)
        assert 22.0 <= summary.housing_temp_max_c < 23.0
        assert summary.package_temp_min_c is None

    def test_record_stride(self, lab_run):
        flash, summary = lab_run
        records = telemetry.read_records(flash)
        assert len(records) == summary.records_written == 120 * 8
        times = [r.time_ms for r in records]
        assert times == sorted(times)
        assert set(np.diff(times)) == {125}

    def test_flags_trace_modes(self, lab_run):
        flash, _ = lab_run
        records = telemetry.read_records(flash)
        commits = [r for r in records if r.flags & telemetry.FLAG_SCAN_COMMIT]
        assert len(commits) == 4
        counting = [r for r in records if r.flags & telemetry.FLAG_COUNTING]
        assert counting, "counting periods must be flagged"
        assert all(r.flags & telemetry.FLAG_LASER_ON for r in counting)
        assert not any(r.flags & telemetry.FLAG_HEATER_ON for r in records)

    def test_determinism(self, lab_run):
        flash, summary = lab_run
        scenario = make_scenario("lab", duration_s=120.0, seed=7)
        flash2, summary2 = run_simulation(scenario, seed=7)
        assert bytes(flash.sector_a) == bytes(flash2.sector_a)
        assert bytes(flash.sector_b) == bytes(flash2.sector_b)
        assert flash.cursor == flash2.cursor
        assert summary.visibilities == summary2.visibilities

    def test_seed_changes_counts(self, lab_run):
        flash, _ = lab_run
        scenario = make_scenario("lab", duration_s=120.0, seed=8)
        flash2, _ = run_simulation(scenario, seed=8)
        assert bytes(flash.sector_a) != bytes(flash2.sector_a)


def test_cold_start_heats_first():
    scenario = make_scenario("leo", duration_s=600.0, seed=3)
    _, summary = run_simulation(scenario, seed=3)
    # -5 C start: the whole run is spent heating toward the gate window
    assert summary.scans == []
    assert summary.laser_activations == []
    modes = [m for _, m in summary.mode_history]
    assert modes[:2] == ["init", "heating"]
    assert summary.max_total_power_w == pytest.approx(2.0)
    assert summary.housing_temp_max_c > -5.0


def test_laser_dip_aborts_and_retries():
    scenario = make_scenario("lab", duration_s=120.0, seed=7)
    scenario.laser_dips = [(20.0, 1.0, 0.2)]
    _, summary = run_simulation(scenario, seed=7)
    assert summary.aborted_scans == 1
    # scan 1 died mid-flight; the retry burns a fresh id on the same pair
    assert [s.scan_id for s in summary.scans] == [2, 3]
    assert summary.scans[0].pair == 0
    modes = [m for _, m in summary.mode_history]
    assert "fault_hold" in modes
    hold_start = next(t for t, m in summary.mode_history if m == "fault_hold")
    resume = next(t for t, m in summary.mode_history if t > hold_start and m != "fault_hold")
    assert resume - hold_start >= 30_000
    for s in summary.scans:
        assert s.span_ms == 27000


def test_pooled_visibility_is_unbiased():
    # the fitted visibility over many independent runs must straddle the
    # configured source contrast, not sit off to one side
    vals: list[float] = []
    for seed in range(20):
        scenario = make_scenario("lab", duration_s=120.0, seed=seed)
        _, summary = run_simulation(scenario, seed=seed)
        vals.extend(summary.visibilities)
    mean = float(np.mean(vals))
    assert len(vals) == 80
    assert abs(mean - 0.95) < 0.01
    assert float(np.std(vals)) < 0.02
