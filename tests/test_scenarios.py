"""Environment profiles, scenario construction, and full engine runs."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsat import scenarios, telemetry, thermal_power
from pairsat.analysis import analyze_flash
from pairsat.controller import Mode
from pairsat.physics import ApdParams, SourceParams
from pairsat.scenarios import (
    ATMOSPHERE_SCALE_HEIGHT_M,
    BALLOON_CEILING_M,
    BALLOON_GROUND_ALT_M,
    PACKAGE_CONDUCTANCE_W_PER_C,
    PACKAGE_HEAT_CAPACITY_J_PER_C,
    PACKAGE_PAYLOAD_W,
    RECORD_PERIOD_MS,
    SEA_LEVEL_PRESSURE_MBAR,
    TICK_MS,
    EnvironmentProfile,
    Scenario,
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
from pairsat.thermal_power import BudgetError
from reference_engine import assert_same_run, reference_run


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
    p = balloon_profile()
    dt = 1.0
    temp = 12.0
    trace = {0.0: temp}
    t = 0.0
    while t < p.duration_s:
        air = float(np.interp(t, p.t_s, p.temp_c))
        flow = PACKAGE_CONDUCTANCE_W_PER_C * (air - temp) + PACKAGE_PAYLOAD_W
        temp += flow * dt / PACKAGE_HEAT_CAPACITY_J_PER_C
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


@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_samples(column, value):
    # a NaN air temperature used to clamp to 327.67 C in every record, and
    # rail the biases, with the run exiting clean
    columns = [np.array([0.0, 1.0, 2.0]), *(np.ones(3) for _ in range(4))]
    columns[column][1] = value
    name = dataclasses.fields(EnvironmentProfile)[column].name
    with pytest.raises(ValueError, match=f"profile {name} must be finite, got {value}"):
        EnvironmentProfile(*columns)


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


@pytest.mark.parametrize("duration_s", [0.01, 0.049])
def test_engine_rejects_run_shorter_than_a_tick(duration_s):
    with pytest.raises(ValueError, match=f"duration {duration_s} s"):
        SimulationEngine(make_scenario("lab", duration_s=duration_s))
    SimulationEngine(make_scenario("lab", duration_s=0.05))


def _source_at_peak_counts(counts: float) -> SourceParams:
    """A source whose expected raw coincidences at the peak angle, with both
    detectors at the efficiency curve's top ratio, sum to `counts` over the
    three 50 ms ticks one 125 ms record can hold."""
    scale = ApdParams().efficiency_scale_v
    ratio = (1.0 - math.exp(-130.0 / scale)) / (1.0 - math.exp(-10.0 / scale))
    src = SourceParams()
    accidental = src.singles_rate_signal_hz * src.singles_rate_idler_hz * ratio**2 * 9e-9
    true_peak = (counts / 0.15 - accidental) / ratio**2
    return SourceParams(pair_rate_per_mw=true_peak / (src.pump_power_mw * (1.0 + 0.95) / 2.0))


def test_engine_accepts_source_under_coinc_raw_limit():
    scenario = make_scenario("lab", duration_s=1.0)
    scenario.source = _source_at_peak_counts(0.999 * (2**16 - 1))
    SimulationEngine(scenario)


def test_engine_rejects_source_over_coinc_raw_limit():
    # raised by the constructor: the u16 field is never clamped in flight
    scenario = make_scenario("lab", duration_s=1.0)
    scenario.source = _source_at_peak_counts(1.001 * (2**16 - 1))
    with pytest.raises(ValueError, match="coinc_raw"):
        SimulationEngine(scenario)


# a hand-filled pending block: (row, repeat count, housing temperature of
# each period); a row holds scan id, step, pair, LC mV, counts, flags, laser
# mW and the two biases, as the recorder logs them
PENDING_BLOCK = [
    ((3, 5, 1, 4200, 1800, 18000, 16500, 210, telemetry.FLAG_COUNTING, 9.00049, 115.04, 116.96),
     1, [22.005]),
    ((3, 6, 1, 4400, 1800, 0, 0, 0, telemetry.FLAG_SCAN_COMMIT, 8.99951, 115.05, 116.95),
     1, [400.0]),
    ((0, 0, 0, 0, 0, 0, 0, 0, telemetry.FLAG_HEATER_ON, 0.0, 110.0, 110.25),
     5, [-1000.0, 19.995, -0.004999, 0.015, 327.675]),
    ((4, 0, 0, 3100, 900, 17000, 15000, 180, telemetry.FLAG_COUNTING, 9.1, 110.0, 110.25),
     1, [20.0]),
    ((0, 0, 1, 3100, 900, 0, 0, 0, telemetry.FLAG_FAULT_HOLD, 0.0, 125.0, 125.0),
     3, [21.125, 21.135, -327.685]),
]


def _fill_pending_block(engine, block, cursor):
    engine.flash.cursor = cursor
    engine._rows = [row for row, _, _ in block]
    engine._repeats = [len(temps) for _, _, temps in block]
    engine._temps = [t for _, _, temps in block for t in temps]
    engine._scan_rows = []


def test_block_write_matches_a_table_built_record_by_record():
    # the ring's first wrap, at cursor SECTOR_CAPACITY, falls on the third
    # period of the first held row
    engine = SimulationEngine(make_scenario("lab", duration_s=60.0))
    first = telemetry.SECTOR_CAPACITY - 4
    _fill_pending_block(engine, PENDING_BLOCK, first)
    engine._write_block()
    # reference: every row expanded into its records, each converted with the
    # scalar `round`, then one table
    records = []
    for row, _, temps in PENDING_BLOCK:
        *context, flags, laser_mw, bias_1, bias_2 = row
        for temp in temps:
            i = first + len(records)
            wrapped = telemetry.FLAG_WRAPPED if i >= telemetry.SECTOR_CAPACITY else 0
            records.append((i * RECORD_PERIOD_MS, *context,
                            int(round(max(-327.68, min(327.67, temp)) * 100)),
                            round(laser_mw * 100), round(bias_1 * 10), round(bias_2 * 10),
                            flags | telemetry.FLAG_PRESENT | wrapped))
    expected = telemetry.FlashImage(cursor=first)
    table = telemetry.table_from_rows(records)
    telemetry.write_redundant(expected, table)
    assert engine.flash.cursor == expected.cursor == first + 11
    assert engine.flash.sector_a == expected.sector_a
    assert engine.flash.sector_b == expected.sector_b
    counted = (table["flags"] & (telemetry.FLAG_COUNTING | telemetry.FLAG_SCAN_COMMIT)) != 0
    [kept] = engine._scan_rows
    assert kept.tobytes() == table[counted].tobytes() and len(kept) == 3
    assert engine._rows == engine._repeats == engine._temps == []


@pytest.mark.parametrize("field, index, value", [
    ("bias_1_decivolt", 10, 6553.6),
    ("bias_2_decivolt", 11, -0.06),
    ("laser_power_10uw", 9, 655.36),
    ("laser_power_10uw", 9, math.nan),
])
@pytest.mark.parametrize("bad_row", [0, 2])  # a single row, a held row
def test_block_write_rejects_a_logged_value_outside_its_field(field, index, value, bad_row):
    engine = SimulationEngine(make_scenario("lab", duration_s=60.0))
    block = list(PENDING_BLOCK)
    row, repeats, temps = block[bad_row]
    block[bad_row] = (row[:index] + (value,) + row[index + 1:], repeats, temps)
    _fill_pending_block(engine, block, 7)
    before = bytes(engine.flash.sector_a), bytes(engine.flash.sector_b)
    with pytest.raises(ValueError, match=field):
        engine._write_block()
    assert (bytes(engine.flash.sector_a), bytes(engine.flash.sector_b)) == before
    assert engine.flash.cursor == 7 and engine._scan_rows == []


@pytest.fixture(scope="module")
def lab_run():
    """One 120 s bench run, shared across the checks below."""
    scenario = make_scenario("lab", duration_s=120.0, seed=7)
    return run_simulation(scenario)


class TestLabRun:
    def test_scan_cadence(self, lab_run):
        _, summary = lab_run
        assert [s.scan_id for s in summary.scans] == [1, 2, 3, 4]
        assert [s.pair for s in summary.scans] == [0, 1, 0, 1]
        for s in summary.scans:
            # 36 steps of 0.3 s settle + 0.45 s dwell, commit on the next tick
            assert s.t_commit_ms - s.t_start_ms == 27000
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
        flash2, summary2 = run_simulation(scenario)
        assert bytes(flash.sector_a) == bytes(flash2.sector_a)
        assert bytes(flash.sector_b) == bytes(flash2.sector_b)
        assert flash.cursor == flash2.cursor
        assert summary.visibilities == summary2.visibilities

    def test_seed_changes_counts(self, lab_run):
        flash, _ = lab_run
        scenario = make_scenario("lab", duration_s=120.0, seed=8)
        flash2, _ = run_simulation(scenario)
        assert bytes(flash.sector_a) != bytes(flash2.sector_a)


def test_engine_checks_the_budget_of_every_new_draw(monkeypatch):
    # a cold room: the housing cools through 20 C mid-scan, and the heater's
    # first tick draws 2.0 W after some 1 300 cached ticks at 1.3 W
    def cold_room() -> Scenario:
        profile = lab_profile(120.0)
        profile.temp_c[:] = -20.0
        return Scenario("cold", profile, 120.0, seed=2, initial_housing_c=20.5)

    flash, _ = run_simulation(cold_room())
    rows = telemetry.read_records(flash, as_table=True).rows
    first_heater_ms = rows["time_ms"][(rows["flags"] & telemetry.FLAG_HEATER_ON) != 0][0]
    engine = SimulationEngine(cold_room())
    monkeypatch.setattr(thermal_power, "POWER_BUDGET_W", 1.5)
    with pytest.raises(BudgetError, match="2.000 W"):
        engine.run()
    assert engine.ctrl.heater_watts > 0.0 and engine.ctrl.mode is Mode.SCANNING
    raised_ms = round(engine.ctrl.monitor.samples[-1][0] * 1000)
    assert raised_ms // RECORD_PERIOD_MS * RECORD_PERIOD_MS == first_heater_ms
    # the draw that raised was not cached: it raises again
    with pytest.raises(BudgetError):
        engine._draws(engine._last_cmd.laser_on, engine._last_cmd.heater_watts)


def test_cold_start_heats_first():
    scenario = make_scenario("leo", duration_s=600.0, seed=3)
    _, summary = run_simulation(scenario)
    # -5 C start: the whole run is spent heating toward the gate window
    assert summary.scans == []
    assert summary.laser_activations == []
    modes = [m for _, m in summary.mode_history]
    assert modes[:2] == ["init", "heating"]
    assert summary.max_total_power_w == pytest.approx(2.0)
    assert summary.housing_temp_max_c > -5.0


def test_laser_dip_aborts_and_retries(lab_dip_run, tmp_path):
    flash, summary = lab_dip_run[:2]
    assert summary.aborted_scans == 1
    # scan 1 died mid-flight; the retry burns a fresh id on the same pair
    assert [s.scan_id for s in summary.scans] == [2, 3]
    assert summary.scans[0].pair == 0
    modes = [m for _, m in summary.mode_history]
    assert "fault_hold" in modes
    hold_start = next(t for t, m in summary.mode_history if m == "fault_hold")
    resume = next(t for t, m in summary.mode_history if t > hold_start and m != "fault_hold")
    assert (hold_start, resume) == (20_000, 50_000)
    for s in summary.scans:
        assert s.t_commit_ms - s.t_start_ms == 27000
    # the aborted attempt's records stay in the ring; the flight and the
    # ground both drop them and fit the same two scans bit for bit
    path = os.fspath(tmp_path / "flash.bin")
    telemetry.save_image(flash, path)
    rows = analyze_flash(path, os.fspath(tmp_path / "ground"))
    assert [(s.scan_id, s.visibility.hex(), s.phase_rad, s.pair) for s in summary.scans] == [
        (r["scan_id"], r["visibility"].hex(), r["phase_rad"], r["pair"]) for r in rows
    ]


def test_run_ending_on_a_commit_tick_reports_the_scan():
    # the commit record is flushed, and the scan fitted, after the last tick
    _, full = run_simulation(make_scenario("lab", seed=1))
    duration_s = (full.scans[0].t_commit_ms + TICK_MS) / 1000
    assert duration_s == 37.15
    _, short = run_simulation(make_scenario("lab", duration_s=duration_s, seed=1))
    assert short.scans == full.scans[:1]


def test_flight_fit_refuses_a_grouping_other_than_the_committed_scans():
    # the flight fits its scans through the ground grouping of its own rows,
    # which must keep exactly the scans the run committed, in order
    engine = SimulationEngine(make_scenario("lab", duration_s=120.0, seed=1))
    _, summary = engine.run()
    assert [s.scan_id for s in summary.scans] == [1, 2, 3, 4]
    committed, rows = engine._committed, engine._scan_rows
    cases = [(committed[1:], rows), (committed[::-1], rows),
             (committed, [block[block["scan_id"] != 2] for block in rows])]
    for metas, scan_rows in cases:
        engine._committed, engine._scan_rows = metas, scan_rows
        with pytest.raises(RuntimeError, match="grouped as"):
            engine._fit_scans()


def test_pooled_visibility_is_unbiased():
    # the fitted visibility over many independent runs must straddle the
    # configured source contrast, not sit off to one side
    vals: list[float] = []
    for seed in range(20):
        scenario = make_scenario("lab", duration_s=120.0, seed=seed)
        _, summary = run_simulation(scenario)
        vals.extend(summary.visibilities)
    mean = float(np.mean(vals))
    assert len(vals) == 80
    assert abs(mean - 0.95) < 0.01
    assert float(np.std(vals)) < 0.02


@pytest.mark.parametrize("field", ["initial_housing_c", "initial_package_c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_engine_rejects_a_non_finite_start_temperature(field, value):
    # a NaN housing used to run to the end with every record at 0 C, and
    # +inf to turn the laser on at 50 ms
    scenario = make_scenario("lab", duration_s=30.0, seed=1)
    setattr(scenario, field, value)
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        SimulationEngine(scenario)


def test_engine_rejects_a_housing_temperature_that_leaves_the_floats():
    # air from +1e308 C to -1e308 C over 30 s drives the housing to NaN: the
    # run used to write all 240 records at 0 C, with a housing low of -inf
    profile = EnvironmentProfile(np.array([0.0, 30.0]), np.array([1e308, -1e308]),
                                 np.zeros(2), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match=r"housing temperature nan C .* time_ms 0 is not finite"):
        run_simulation(Scenario("custom", profile, 30.0))


@pytest.mark.parametrize("name, duration_s", [("leo", 3000.0), ("lab", 30.0)])
def test_engine_rejects_a_negative_seed(name, duration_s):
    # the cold leo run never draws, and used to write a full flash; the lab
    # run failed at its first laser draw, without naming the seed
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        SimulationEngine(make_scenario(name, duration_s, -1))


def test_scenario_rejects_a_run_past_its_profile():
    # a run up to the last sample is accepted; one past it used to hold the
    # last sample silently
    Scenario("custom", lab_profile(60.0), 60.0)
    with pytest.raises(ValueError, match=r"duration 60\.05 s runs past .* ends at 60\.0 s"):
        Scenario("custom", lab_profile(60.0), 60.05)
    end_s = balloon_profile().duration_s
    with pytest.raises(ValueError, match=f"duration 12000.0 s .* ends at {end_s} s"):
        make_scenario("balloon", duration_s=12000.0)
    # nor may it start before the profile, which used to hold its first
    # sample for every tick before it
    ones = np.ones(2)
    Scenario("custom", EnvironmentProfile(np.array([-5.0, 60.0]), ones, ones, ones, ones), 60.0)
    late = EnvironmentProfile(np.array([100.0, 700.0]), ones, ones, ones, ones)
    with pytest.raises(ValueError, match=r"profile starts at 100\.0 s, after the run at 0 s"):
        Scenario("custom", late, 600.0)


def _custom(temps, duration_s, housing_c, package_c=None, seed=1, dips=()):
    """A custom scenario whose air temperature runs linearly through `temps`;
    with `package_c` the housing sits in a package node starting there, and
    `dips` are its laser dips."""
    n = len(temps)
    profile = EnvironmentProfile(
        np.linspace(0.0, duration_s, n), np.array(temps, dtype=float),
        np.zeros(n), np.zeros(n), np.ones(n),
    )
    return Scenario(
        "custom", profile, duration_s, seed, initial_housing_c=housing_c,
        initial_package_c=package_c, laser_dips=list(dips),
    )


# The differential tests: each run's flash and summary must equal those of
# the reference engine (`tests/reference_engine.py`), which takes every tick
# one at a time, so each stretch the engine takes is checked against the
# per-tick rules it repeats. Each case also asserts that the run took the
# stretch, exit or state the case is there for.

def _matches_reference(engine_run, scenario, prepare=None):
    """Run the scenario on the engine, logging its stretches, and on the
    reference engine, `prepare` applied to each controller first; assert
    equal flash and summaries, and return the engine's logged run."""
    run = engine_run(scenario, prepare)
    assert_same_run(run, reference_run(scenario, prepare))
    return run


def _ends_on_period_boundary(end, n_ticks):
    return end < n_ticks and end * TICK_MS % RECORD_PERIOD_MS < TICK_MS


def _a_hold(case):
    """A run case met by one of the run's holds that `case(hold, n_ticks)`
    accepts."""
    return lambda run, n: any(case(s, n) for s in run.holds)


def _fault_hold_heater_flags(run):
    """The heater flags of the run's fault-hold records."""
    flags = telemetry.read_records(run.flash, as_table=True).rows["flags"]
    fault_hold = (flags & telemetry.FLAG_FAULT_HOLD) != 0
    return set((flags[fault_hold] & telemetry.FLAG_HEATER_ON).tolist())


def _periods_held(hold):
    """The periods a hold logs with only their temperature: those that start
    on its held ticks, but the first, which closes the decided tick's."""
    starts = sum(k * TICK_MS % RECORD_PERIOD_MS < TICK_MS for k in range(hold.first + 1, hold.end))
    return max(0, starts - 1)


@pytest.fixture(scope="module")
def cold_start():
    """A 4 100 s cold start that heats throughout, past SECTOR_CAPACITY
    records, and its reference run."""
    scenario = _custom([-5.0, -5.0], 4100.0, housing_c=-5.0)
    return scenario, reference_run(scenario)


@pytest.mark.parametrize("kwargs, case", [
    # cooled below 20 C during the first scan: heating from the commit tick
    # to the end of the run
    (dict(temps=[-100, -100], duration_s=120.0, housing_c=20.3),
     _a_hold(lambda s, n: s.mode is Mode.HEATING and s.on_commit and s.exit == "end")),
    # warmed above 30 C during the first scan: waiting to cool likewise
    (dict(temps=[200, 200], duration_s=120.0, housing_c=29.5),
     _a_hold(lambda s, n: s.mode is Mode.WAIT_COOL and s.on_commit and s.exit == "end")),
    # heating inside a package node until the gate opens on a record boundary
    (dict(temps=[-50, -50], duration_s=60.0, housing_c=19.9, package_c=0.0),
     _a_hold(lambda s, n: s.mode is Mode.HEATING and _ends_on_period_boundary(s.end, n))),
    # heating whose first held tick is mid-period, ending mid-run, then three scans
    (dict(temps=[-200, 250, -200], duration_s=200.0, housing_c=19.0),
     _a_hold(lambda s, n: (s.first + 1) * TICK_MS % RECORD_PERIOD_MS and s.exit == "band")),
    # a dip aborts the first scan at 15 s; the housing cools through 20 C
    # at 35.9 s in the fault hold, whose heater turns on, and the hold
    # resumes to its end at 45 s, into HEATING for the rest of the run, so
    # the second dip, at 80 s, meets the laser off: the hold's 600 ticks
    # are decided one at a time, with the heater off and then on
    (dict(temps=[-20, -20], duration_s=150.0, housing_c=20.3,
          dips=[(15.0, 0.5, 0.3), (80.0, 0.5, 0.3)]),
     lambda run, n: (run.decisions[Mode.FAULT_HOLD.value] == 600
                     and _fault_hold_heater_flags(run) == {0, telemetry.FLAG_HEATER_ON})),
    # a dip aborts the first scan at 20 s, and the run ends in the fault
    # hold, after deciding its 399 ticks
    (dict(temps=[22, 22], duration_s=40.0, housing_c=22.0, dips=[(20.0, 1.0, 0.2)]),
     lambda run, n: (run.decisions[Mode.FAULT_HOLD.value] == 399
                     and run.summary.mode_history[-1] == (20_000, "fault_hold"))),
    # heating from the first tick reaches the gate on tick 7, a scan follows:
    # the hold closes tick 0's period on tick 3, and logs tick 5's with
    # only its temperature
    (dict(temps=[22, 22], duration_s=40.0, housing_c=19.9972),
     _a_hold(lambda s, n: s.mode is Mode.HEATING and s.exit == "band" and _periods_held(s) == 1)),
], ids=["heating-after-storing", "wait-cool-after-storing", "package-node", "gate-opens",
        "fault-hold-heater-toggle", "ends-in-fault-hold", "one-held-period"])
def test_idle_stretch_cases_match_per_tick_path(kwargs, case, engine_run):
    scenario = _custom(**kwargs)
    n_ticks = round(scenario.duration_s * 1000) // TICK_MS
    run = _matches_reference(engine_run, scenario)
    assert case(run, n_ticks), (run.holds, run.decisions)


def test_next_starts_period_marks_each_tick_before_a_period_start():
    assert scenarios.PERIOD_TICKS == 5
    for k in range(1000):
        assert scenarios.NEXT_STARTS_PERIOD[k % scenarios.PERIOD_TICKS] == (
            (k + 1) * TICK_MS % RECORD_PERIOD_MS < TICK_MS), k


@pytest.mark.parametrize("duration_s", [300.0, 300.05, 300.1, 300.15, 300.2])
def test_a_hold_meets_the_run_end_on_every_tick_phase(duration_s, engine_run):
    # 6 000 to 6 004 ticks: the run ends inside the cold start's heating
    # hold on each of the five ticks of a period cycle, on a period's first
    # tick at 6 000 and 6 003
    run = _matches_reference(engine_run, make_scenario("leo", duration_s))
    assert [(s.mode, s.first, s.exit) for s in run.holds] == [(Mode.HEATING, 0, "end")]


def test_a_run_whose_laser_stays_off_never_imports_numpy_random():
    # the engine builds its generator on the laser's first draw
    script = """
import sys
from pairsat.scenarios import make_scenario, run_simulation
_, summary = run_simulation(make_scenario("leo", 300))
assert not summary.laser_activations
assert "numpy.random" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("duration_s, settle_ms", [(11.0, 150), (20.0, 0)])
def test_a_fault_hold_runs_the_lc_settle_timer_down(duration_s, settle_ms):
    # a dip from 10.9 s aborts the first scan at 10.95 s, 100 ms after step
    # 1's command, and the run ends on that tick or inside the fault hold
    # after it; no record carries the timer, so no reference comparison
    # sees it
    scenario = make_scenario("lab", duration_s=duration_s, seed=7)
    scenario.laser_dips = [(10.9, 0.5, 0.2)]
    engine = SimulationEngine(scenario)
    _, summary = engine.run()
    assert summary.mode_history[-1] == (10_950, "fault_hold")
    assert engine.lc.settle_remaining_ms == settle_ms


def test_idle_stretch_above_the_temperature_clamp_matches_per_tick_path(engine_run):
    # waiting to cool in 600 C air from 325 C: the housing passes the
    # +327.67 C that the temp_centi_c field clamps to
    run = _matches_reference(engine_run, _custom([600.0, 600.0], 120.0, housing_c=325.0))
    assert [(s.mode, s.end) for s in run.holds] == [(Mode.WAIT_COOL, 2400)]
    assert run.summary.housing_temp_max_c > 327.67


@pytest.mark.parametrize("pending", [scenarios.PENDING_RECORDS, 1000])
def test_idle_stretch_across_blocks_and_the_ring_wrap_matches_per_tick_path(
        pending, monkeypatch, engine_run, cold_start):
    # 32 768 records are 8 blocks of 4 096, so only with 1 000-record blocks
    # does FLAG_WRAPPED flip inside one block
    scenario, reference = cold_start
    monkeypatch.setattr(scenarios, "PENDING_RECORDS", pending)
    run = engine_run(scenario)
    assert_same_run(run, reference)
    periods = [(s.first * TICK_MS // RECORD_PERIOD_MS, s.end * TICK_MS // RECORD_PERIOD_MS)
               for s in run.holds]
    assert any(first < telemetry.SECTOR_CAPACITY < end and first // pending < end // pending
               for first, end in periods), periods


@pytest.mark.parametrize("pending", [7, 1000])
def test_block_size_changes_no_output(pending, monkeypatch, lab_dip_run, lab_dip_reference,
                                      cold_start):
    # where the pending blocks end changes no byte and no summary field:
    # scans and an aborted attempt straddle the 7-record blocks, so their
    # rows carry over into the next block's grouping, and the ring wraps
    # inside a block of either size
    dip = lab_dip_run.scenario
    monkeypatch.setattr(scenarios, "PENDING_RECORDS", pending)
    for scenario, reference in [(dip, lab_dip_reference), cold_start]:
        assert_same_run(run_simulation(scenario), reference)
    assert lab_dip_run.summary.aborted_scans == 1 and len(lab_dip_run.summary.scans) == 2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    # air temperatures far out, so the housing crosses 20, 22 and 30 C
    # within a short run
    temps=st.lists(st.floats(-200.0, 250.0), min_size=2, max_size=4),
    duration_ms=st.integers(10_000, 150_000),
    housing_c=st.floats(17.0, 33.0),
    package_c=st.none() | st.floats(-20.0, 40.0),
    seed=st.integers(0, 3),
)
def test_idle_stretches_match_per_tick_path(temps, duration_ms, housing_c, package_c, seed,
                                            engine_run):
    _matches_reference(engine_run, _custom(temps, duration_ms / 1000.0, housing_c, package_c, seed))


def test_wrapped_flag_marks_records_past_the_ring(cold_start):
    # a cold start that heats for the whole run writes more records than
    # one sector holds; the ring keeps the newest of them
    flash, summary = run_simulation(cold_start[0])
    assert summary.records_written == flash.cursor == 4100 * 8
    records = telemetry.read_records(flash)
    assert len(records) == telemetry.SECTOR_CAPACITY
    first_wrapped_ms = telemetry.SECTOR_CAPACITY * RECORD_PERIOD_MS
    assert [bool(r.flags & telemetry.FLAG_WRAPPED) for r in records] == \
        [r.time_ms >= first_wrapped_ms for r in records]
    assert records[0].time_ms < first_wrapped_ms


def _lab_dip(t0_s, frac=0.2):
    """Lab 120 s, seed 7, with a 0.5 s laser dip by `frac` from t0_s; its
    first scan starts at 10.1 s and commands step s at 10.1 + 0.75 s s."""
    scenario = make_scenario("lab", duration_s=120.0, seed=7)
    scenario.laser_dips = [(t0_s, 0.5, frac)]
    return scenario


def _narrow_bias_max(ctrl, bias_max_v=120.5, breakdown_v=112.0, channel=0):
    # channel 0 needs 120.5 V near 22.9 C, which the housing in 200 C air
    # passes some 20 s in, during the first scan, on channel 0's pair; so
    # does channel 3, that pair's idler channel
    loop = ctrl.bias_loops[channel]
    loop.params = dataclasses.replace(loop.params, bias_max_v=bias_max_v,
                                      breakdown_volts_at_25c=breakdown_v)


def _low_breakdown(ctrl):
    # channel 0 breaks down 12 V low: the bias its setpoint needs, near
    # 110 V, lies under a 112 V floor, so its loop walks down from 115 V in
    # the warm-up and rails at bias_min_v
    loop = ctrl.bias_loops[0]
    loop.params = dataclasses.replace(loop.params, bias_min_v=112.0,
                                      breakdown_volts_at_25c=100.0)


def _unlike_idler_apd(ctrl):
    # channel 3, the idler APD of channel 0's pair, differs from it in
    # every field, so no field of one loop can stand in for the other's
    ctrl.bias_loops[3].params = ApdParams(
        breakdown_volts_at_25c=111.5, breakdown_tempco_v_per_c=0.65,
        amplitude_gain_per_overvolt=0.12, efficiency_scale_v=5.0,
        bias_min_v=101.0, bias_max_v=129.0)


def _idler_bias_apart(ctrl):
    ctrl.bias_loops[3].bias = 118.0


def _signal_starved():
    """Lab 60 s, seed 1, with 1 000 signal singles per second: the
    coincidences of a tick near the peak of the scan are clamped by its
    signal singles."""
    scenario = make_scenario("lab", duration_s=60.0, seed=1)
    scenario.source = SourceParams(singles_rate_signal_hz=1000.0)
    return scenario


def _idler_starved():
    """Lab 60 s, seed 1, with 1 000 idler singles per second: below the
    pair rate near the peak of the scan, so the coincidences of a tick are
    clamped by its idler singles."""
    scenario = make_scenario("lab", duration_s=60.0, seed=1)
    scenario.source = SourceParams(singles_rate_idler_hz=1000.0)
    return scenario


def _railed_dip():
    """Air at 200 C and a dip from 64.25 s, the third scanning stretch's
    first tick (the scan begins at 64.2 s): the first two begin on ticks
    whose window reads not ready."""
    scenario = _custom([200.0, 200.0], 70.0, housing_c=22.0)
    scenario.laser_dips = [(64.25, 0.5, 0.2)]
    return scenario


@pytest.mark.parametrize("scenario, prepare, case", [
    # the dip starts on a tick that counts at step 13 (a command at 19.85 s,
    # counts from 20.15 s)
    (_lab_dip(20.25), None, lambda s: s.reason == "unstable" and 0 < s.dwell_ms < 450),
    # a dip just under the 5 % threshold: the stretch runs through it
    (_lab_dip(20.25, 0.0495), None, lambda s: not s.stabilizing and s.first < 405 < s.end),
    # a dip in the 10 s warm-up: the stretch runs through the unstable
    # windows, nothing aborts, and the scan begins once the last dipped
    # sample (5.45 s) leaves the window, at 15.5 s instead of 10.1 s
    (_lab_dip(5.0), None, lambda s: s.stabilizing and s.reason == "stable" and s.end == 310),
    # the run ends in the warm-up
    (make_scenario("lab", duration_s=5.0, seed=1), None,
     lambda s: s.stabilizing and s.reason == "end" and s.end == 100),
    # the dip starts on the second commit's tick, at 64.15 s, which checks
    # no stability; the next tick enters LASER_STABILIZING in the commit's
    # period with the window kept, and waits for the last dipped sample
    # (64.6 s) to leave it
    (_lab_dip(64.14), None,
     lambda s: s.stabilizing and s.after_commit and (s.first, s.end) == (1284, 1493)),
    # its first tick is step 2's command tick, at 11.6 s (on the command
    # tick of step 13 the window is not full, so that dip aborts a tick later)
    (_lab_dip(11.59), None, lambda s: s.reason == "unstable" and s.pending),
    # the stretch runs through the rail to the end of the scan: one stretch
    # of all the scan's 540 ticks but the first, which began it, railed at
    # its exit
    (_custom([200.0, 200.0], 60.0, housing_c=22.0), _narrow_bias_max,
     lambda s: s.railed and s.reason == "storing" and s.end - s.first == 539),
    # the same with channel 3 narrowed: the pair's idler loop rails alone
    (_custom([200.0, 200.0], 60.0, housing_c=22.0),
     lambda ctrl: _narrow_bias_max(ctrl, channel=3),
     lambda s: s.railed and s.reason == "storing" and s.end - s.first == 539),
    # channel 0 railed within seconds, and a dip on a stretch's first tick:
    # the stretch returns before any bias step, and the fault hold after it
    # steps no loop, so its records carry the rail the stretch entered with
    (_railed_dip(), lambda ctrl: _narrow_bias_max(ctrl, 119.0),
     lambda s: s.railed and s.reason == "unstable" and s.end == s.first),
    # 200 C air falling to -300 C from 40 to 80 s: channel 0 rails just
    # before the third scan's stretch and leaves the rail inside it, where
    # the integrator it reset at the rail sets the tick it leaves on
    (_custom([200.0, 200.0, -300.0, -300.0], 120.0, housing_c=22.0), _narrow_bias_max,
     lambda s: not s.stabilizing and s.entered_railed and not s.railed),
    # channel 0's breakdown 1 V lower: its bias sits 1 V under channel 3's
    (make_scenario("lab", duration_s=60.0, seed=1),
     lambda ctrl: _narrow_bias_max(ctrl, 130.0, 111.0), lambda s: s.reason == "storing"),
    # the housing cools through 20 C in the third scan: the heater turns on
    (_custom([-20.0, -20.0], 120.0, housing_c=20.5), None,
     lambda s: not s.stabilizing and s.heater_toggled),
    (_custom([-20.0, -20.0], 120.0, housing_c=20.5, package_c=-20.0), None,
     lambda s: not s.stabilizing and s.heater_toggled),
    (make_scenario("lab", duration_s=25.0, seed=1), None,
     lambda s: not s.stabilizing and s.reason == "end" and s.end == 500),
    # the first commit is at 37.1 s, the run's last tick
    (make_scenario("lab", duration_s=37.15, seed=1), None,
     lambda s: s.reason == "storing" and s.end == 742),
    # some scan starts in the period of the commit before it
    (make_scenario("lab", seed=1), None, lambda s: not s.stabilizing and s.after_commit),
    (_idler_starved(), None, lambda s: not s.stabilizing and s.coinc_at_idler_singles),
    (_signal_starved(), None, lambda s: not s.stabilizing and s.coinc_at_signal_singles),
    # the signal loop rails at its floor in the warm-up and scans on it
    (make_scenario("lab", duration_s=60.0, seed=1), _low_breakdown,
     lambda s: not s.stabilizing and s.entered_railed and s.railed),
    (make_scenario("lab", duration_s=60.0, seed=1), _unlike_idler_apd,
     lambda s: s.reason == "storing"),
    # channel 3 shares channel 0's APD but enters 3 V higher: the pair's
    # loops are not twins, and each steps on its own
    (make_scenario("lab", duration_s=60.0, seed=1), _idler_bias_apart,
     lambda s: s.stabilizing and not s.entered_twins),
], ids=["dip-mid-dwell", "dip-under-threshold", "dip-in-warm-up", "ends-in-warm-up",
        "stabilizing-after-commit", "dip-on-step-command", "bias-rail", "idler-bias-rail",
        "railed-dip-on-entry", "leaves-rail",
        "unequal-loops", "heater-toggle", "heater-toggle-package-node", "ends-mid-stretch",
        "ends-after-commit", "after-storing", "coinc-clamped-by-idler",
        "coinc-clamped-by-signal", "bias-min-rail", "unlike-pair-loops",
        "twin-params-unlike-state"])
def test_scan_stretch_cases_match_per_tick_path(scenario, prepare, case, engine_run):
    run = _matches_reference(engine_run, scenario, prepare)
    assert any(case(s) for s in run.operating), run.operating
    assert all(s.entered_in_range for s in run.operating), run.operating


def test_a_laser_step_longer_than_the_window_recentres_the_band(engine_run):
    # a 3 % step from 20.25 s to 35.25 s, under the 5 % threshold and longer
    # than the 10 s window: nothing aborts, and the monitor's band, centred
    # on the nominal power after the warm-up, re-centres on the stepped power
    # inside the step (the first scan's stretch ends at 37.1 s with the
    # stepped power the window's median) and back on the nominal power after
    # it (the second scan's, at 64.15 s)
    scenario = make_scenario("lab", duration_s=120.0, seed=7)
    scenario.laser_dips = [(20.25, 15.0, 0.03)]
    run = _matches_reference(engine_run, scenario)
    assert run.summary.aborted_scans == 0 and len(run.summary.scans) == 4
    levels = [round((lo + hi) / 2 / scenario.source.pump_power_mw, 2) for lo, hi in
              (s.band for s in run.operating)]
    assert levels[:4] == [1.0, 0.97, 0.97, 1.0], run.operating


def test_pump_drive_reaches_the_laser_reading(engine_run):
    # the laser draws about the source's pump drive, here 6 mW, so every
    # laser-on record reads it, within the 0.03 % noise
    scenario = make_scenario("lab", duration_s=60.0, seed=1)
    scenario.source = SourceParams(pump_power_mw=6.0)
    run = _matches_reference(engine_run, scenario)
    assert run.summary.scans
    rows = telemetry.read_records(run.flash, as_table=True).rows
    laser_on = rows["laser_power_10uw"][(rows["flags"] & telemetry.FLAG_LASER_ON) != 0]
    assert len(laser_on) > 0
    assert 599 <= laser_on.min() and laser_on.max() <= 601, (laser_on.min(), laser_on.max())


@pytest.mark.parametrize("scenario, prepare", [
    (make_scenario("lab", seed=1), None),
    (make_scenario("leo", 4500.0, 3), None),
    (_custom([200.0, 200.0], 60.0, housing_c=22.0), _narrow_bias_max),
], ids=["lab", "leo-4500", "bias-rail"])
def test_counting_ticks_run_only_in_scan_stretches(scenario, prepare):
    # the per-tick path raises on a counting tick, so a run that ends and
    # fits its scans took every count in an operating stretch
    engine = SimulationEngine(scenario)
    if prepare is not None:
        prepare(engine.ctrl)
    _, summary = engine.run()
    assert summary.scans


def test_per_tick_path_raises_on_a_counting_tick(monkeypatch):
    # an operating stretch that only samples a steady laser and hands every
    # tick back leaves the counting ticks to the per-tick path, which
    # refuses the first
    def sample_only(self, k, ext_temp):
        self._last_laser_mw = self.scenario.source.pump_power_mw
        self.ctrl.monitor.add_sample(k * TICK_MS / 1000.0, self._last_laser_mw)
        return k

    monkeypatch.setattr(SimulationEngine, "_operating_stretch", sample_only)
    engine = SimulationEngine(make_scenario("lab", duration_s=60.0, seed=1))
    with pytest.raises(RuntimeError, match="counts outside the operating stretch"):
        engine.run()
    assert engine.ctrl.mode is Mode.SCANNING and engine.ctrl.dwell_remaining_ms == 400


def test_scan_stretch_fills_blocks_matches_per_tick_path(monkeypatch, engine_run):
    # 7-record blocks fill inside the stretches, and scans straddle them
    monkeypatch.setattr(scenarios, "PENDING_RECORDS", 7)
    run = _matches_reference(engine_run, _lab_dip(20.25))
    assert any(not s.stabilizing and s.wrote_block for s in run.operating), run.operating
    assert any(s.stabilizing and s.wrote_block for s in run.operating), run.operating


# the session's pinned runs (conftest.py) by scenario, duration and seed
PINNED_RUNS = {
    ("lab", None, 1): "lab_480s_run",
    ("leo", 3000.0, 5): "leo_cold_run",
    ("leo", 4500.0, 3): "leo_run",
    ("leo", 7500.0, 3): "leo_wrapped_run",
    ("balloon", None, 11): "balloon_run",
}


@pytest.mark.parametrize("name, duration_s, seed", list(PINNED_RUNS))
def test_pinned_runs_match_per_tick_path(name, duration_s, seed, request):
    run = request.getfixturevalue(PINNED_RUNS[name, duration_s, seed])
    assert (run.scenario.name, run.scenario.seed) == (name, seed)
    assert_same_run(run, reference_run(run.scenario))
    if duration_s == 3000.0:  # heating throughout, in one hold to the end
        assert not run.operating
        assert [(s.mode, s.exit) for s in run.holds] == [(Mode.HEATING, "end")]
        return
    assert {s.reason for s in run.operating} >= {"stable", "storing"}
    if name != "lab":  # the heater toggles inside scans
        assert any(not s.stabilizing and s.heater_toggled for s in run.operating)


@pytest.mark.parametrize("fixture, stretches", [
    ("lab_480s_run", 36), ("leo_run", 96), ("leo_wrapped_run", 260), ("balloon_run", 622),
    ("lab_dip_run", 8),
])
def test_pinned_stretches_enter_with_twin_loops_and_exit_trimmed(fixture, stretches, request):
    # every stretch of a shipped run enters with the pair's two loops as
    # twins, the traffic the one-loop step is for, and inside their bias
    # range, which the stretch's step does not test; and every stretch
    # leaves the monitor's window trimmed, also after ticks that put the
    # trim off
    operating = request.getfixturevalue(fixture).operating
    assert len(operating) == stretches
    assert all(s.entered_twins and s.entered_in_range for s in operating), operating
    assert all(s.exit_trimmed for s in operating), operating


@pytest.mark.parametrize("fixture, decisions", [
    ("lab_480s_run", dict(init=1, laser_stabilizing=18, storing=17)),
    ("leo_wrapped_run", dict(init=1, heating=37, laser_stabilizing=130, storing=129)),
    ("lab_dip_run", dict(init=1, laser_stabilizing=4, scanning=1, fault_hold=600, storing=2)),
    ("leo_cold_run", dict(init=1)),
])
def test_per_tick_path_decides_only_handed_back_ticks(fixture, decisions, request):
    # the controller decides the first tick, the tick after each hold and
    # each tick of a fault hold; of the laser-on ticks only each scan's
    # first, an aborting tick and each commit tick, the operating stretch
    # running every other
    assert request.getfixturevalue(fixture).decisions == decisions


def test_lab_dip_run_matches_per_tick_path(lab_dip_run, lab_dip_reference):
    assert_same_run(lab_dip_run, lab_dip_reference)
    assert [s.reason for s in lab_dip_run.operating].count("unstable") == 1
    # the 30 s fault hold after the aborting tick takes no hold: its 600
    # ticks are decided one at a time
    assert lab_dip_run.holds == []
    assert lab_dip_run.decisions[Mode.FAULT_HOLD.value] == 600


# channel 0's rail and breakdown: a narrow range rails it, and another
# breakdown sets its bias apart from channel 3's
CHANNEL_0 = st.tuples(st.floats(119.0, 130.0), st.floats(110.0, 114.0))


@st.composite
def _rail_round_trip(draw):
    """(air temperatures, duration s, housing C, package C, channel 0) of a
    run whose housing warms, in hot air, past channel 0's rail during a scan
    of its pair, and cools back through it, in falling air, during a later
    one: the loop leaves its rail inside a scan stretch."""
    housing_c = draw(st.floats(20.5, 23.5))
    breakdown_v = draw(st.floats(110.0, 114.0))
    # the rail is the bias that holds the setpoint `over_c` above the start:
    # 10 V over a breakdown that drifts 0.7 V/C
    over_c = draw(st.floats(0.1, 1.5))
    bias_max_v = breakdown_v + 10.0 + 0.7 * (housing_c + over_c - 25.0)
    hot, cold = draw(st.floats(150.0, 250.0)), draw(st.floats(-400.0, -200.0))
    duration_s = draw(st.integers(90_000, 150_000)) / 1000.0
    return [hot, hot, cold, cold], duration_s, housing_c, None, (bias_max_v, breakdown_v)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    run=st.tuples(
        st.lists(st.floats(-100.0, 150.0), min_size=2, max_size=4),
        st.integers(10_000, 90_000).map(lambda ms: ms / 1000.0),
        st.floats(19.0, 31.0),
        st.none() | st.floats(-20.0, 40.0),
        CHANNEL_0,
    ) | _rail_round_trip(),
    seed=st.integers(0, 3),
    dips=st.lists(st.tuples(st.floats(9.0, 90.0), st.floats(0.01, 3.0), st.floats(0.0, 0.3)),
                  max_size=2),
)
def test_scan_stretches_match_per_tick_path(run, seed, dips, engine_run):
    temps, duration_s, housing_c, package_c, channel_0 = run
    scenario = _custom(temps, duration_s, housing_c, package_c, seed)
    scenario.laser_dips = dips
    _matches_reference(engine_run, scenario, lambda ctrl: _narrow_bias_max(ctrl, *channel_0))
