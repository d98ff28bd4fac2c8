"""The reference engine: the plainest run of a scenario, the executable
spec that `SimulationEngine` is tested against.

It advances the flight controller one 50 ms tick at a time through
`FlightController.tick`, with no cache, no stretch and no pending block:
- the LC pair through `command_voltage` and `step_settle`;
- the bus draw and the housing heat uncached, through `total_power`,
  `internal_dissipation` and `housing_step`;
- the counts of a counting tick through `bench_rates`, at detector factors
  that are the `efficiency_factor` of the active bias loops, and
  `sample_counts`;
- each 125 ms period as one `TelemetryRecord`, `encode`d and copied into
  its ring slot of both sectors;
- each committed scan as one `fit_sinusoid`, the closed-form least-squares
  fit of one scan, of the per-step count sums kept here, tick by tick; its
  `ScanSummary` carries the fit's visibility, phase, residual and
  convergence, as the engine's does.

It shares with the engine only the controller, the device models, the
record codec and the fit; it calls no `SimulationEngine` method and none of
the engine's recorder and grouping helpers (`table_from_rows`,
`write_redundant`, `scan_data_from_records`, `fit_sinusoids`).
"""

import dataclasses

import numpy as np

from pairsat import physics, telemetry, thermal_power
from pairsat.analysis import ScanData, correct_accidentals, fit_sinusoid
from pairsat.controller import (FLIGHT_SCAN, IDLER_VOLTAGES_MV, PAIR_CHANNELS, FlightController,
                                Mode, Sensors, bench_rates)
from pairsat.lc_optics import CALIBRATION, LcState, angle_from_voltage, command_voltage, step_settle
from pairsat.scenarios import LASER_NOISE, TICK_MS, TICK_S, RunSummary, ScanSummary, package_step
from pairsat.telemetry import (FLAG_BIAS_RAILED, FLAG_COUNTING, FLAG_FAULT_HOLD, FLAG_HEATER_ON,
                               FLAG_LASER_ON, FLAG_PRESENT, FLAG_SCAN_COMMIT, FLAG_WRAPPED,
                               RECORD_BYTES, RECORD_DTYPE, RECORD_PERIOD_MS, SECTOR_CAPACITY,
                               TelemetryRecord)


def reference_run(scenario, prepare=None):
    """Run `scenario` tick by tick; `prepare`, if given, edits the
    controller before the first tick. Returns the flash image and the run
    summary, as `run_simulation` does."""
    rng = np.random.default_rng(scenario.seed)
    pump_mw = scenario.source.pump_power_mw
    ctrl = FlightController()
    if prepare is not None:
        prepare(ctrl)
    loops = ctrl.bias_loops
    flash = telemetry.FlashImage()
    n_ticks = round(scenario.duration_s * 1000) // TICK_MS
    tick_s = np.arange(n_ticks) * TICK_S
    air = np.interp(tick_s, scenario.profile.t_s, scenario.profile.temp_c).tolist()
    altitude = np.interp(tick_s, scenario.profile.t_s, scenario.profile.altitude_m).tolist()

    # the package node's temperature; None: no package node
    temp, package_temp = scenario.initial_housing_c, scenario.initial_package_c
    housing_range, package_range = [temp, temp], [package_temp, package_temp]
    max_power, aborted = 0.0, 0
    lc, laser_mw = LcState(), 0.0
    mode_history = [(0, ctrl.mode.value)]
    # the open period: its summed counts and flags, and the context of its
    # first counting tick and of its commit tick
    counts, flags, count_ctx, commit_ctx = [0, 0, 0], 0, None, None
    # per scan id and step: the signal LC mV and the summed counts
    steps: dict[int, dict[int, list[int]]] = {}
    # the open scan's start, its step command not yet counted and its settle times
    scan_start_ms, command_ms, settle_ms = 0, None, set()
    committed = []

    def close_period(cmd):
        """Encode the open period's record into both sectors: the context
        of its first counting tick, else of its commit tick, else of the
        last tick's commands; the temperature, laser power and biases as
        they stand now."""
        nonlocal counts, flags, count_ctx, commit_ctx
        scan_id, step, pair, signal_mv, idler_mv = (
            count_ctx or commit_ctx
            or (cmd.scan_id, cmd.step, cmd.pair, lc.signal_mv, lc.idler_mv))
        ch1, ch2 = PAIR_CHANNELS[pair]
        index = flash.cursor
        record = TelemetryRecord(
            time_ms=index * RECORD_PERIOD_MS, scan_id=scan_id, step=step, pair_sel=pair,
            lc_signal_mv=signal_mv, lc_idler_mv=idler_mv,
            singles_1=counts[0], singles_2=counts[1], coinc_raw=counts[2],
            temp_centi_c=round(max(-327.68, min(327.67, temp)) * 100),
            laser_power_10uw=round(laser_mw * 100),
            bias_1_decivolt=round(loops[ch1].bias * 10),
            bias_2_decivolt=round(loops[ch2].bias * 10),
            flags=flags | FLAG_PRESENT | (FLAG_WRAPPED if index >= SECTOR_CAPACITY else 0),
        )
        slot = index % SECTOR_CAPACITY * RECORD_BYTES
        data = telemetry.encode(record)
        flash.sector_a[slot:slot + RECORD_BYTES] = data
        flash.sector_b[slot:slot + RECORD_BYTES] = data
        flash.cursor += 1
        counts, flags, count_ctx, commit_ctx = [0, 0, 0], 0, None, None

    for k in range(n_ticks):
        t_ms = k * TICK_MS
        if k and t_ms % RECORD_PERIOD_MS < TICK_MS:  # a new period starts
            close_period(cmd)

        laser_mw = 0.0
        if ctrl.laser_on:
            laser_mw = pump_mw * (1.0 + LASER_NOISE * float(rng.standard_normal()))
            for t0, duration, frac in scenario.laser_dips:
                if t0 <= k * TICK_S < t0 + duration:
                    laser_mw *= 1.0 - frac
        mode = ctrl.mode
        cmd = ctrl.tick(Sensors(t_ms, temp, laser_mw, lc.settled))
        if cmd.mode is not mode:
            mode_history.append((t_ms, cmd.mode.value))

        if cmd.lc_signal_mv is not None:  # a step command writes both LCs
            lc = command_voltage(cmd.lc_signal_mv, IDLER_VOLTAGES_MV[cmd.pair])
            if cmd.step == 0:
                scan_start_ms, settle_ms = t_ms, set()
            command_ms = t_ms
        if cmd.abort_scan:
            aborted += 1
        if cmd.counting:
            factors = tuple(physics.efficiency_factor(loops[ch].params, loops[ch].bias, temp)
                            for ch in PAIR_CHANNELS[cmd.pair])
            rates = bench_rates(scenario.source, cmd.pair, factors,
                                angle_from_voltage(CALIBRATION, lc.signal_mv / 1000.0))
            step_sums = steps.setdefault(cmd.scan_id, {}).setdefault(
                cmd.step, [lc.signal_mv, 0, 0, 0])
            for i, n in enumerate(physics.sample_counts(rates, TICK_S, rng)):
                counts[i] += n
                step_sums[1 + i] += n
            flags |= FLAG_COUNTING
            if count_ctx is None:
                count_ctx = (cmd.scan_id, cmd.step, cmd.pair, lc.signal_mv, lc.idler_mv)
            if command_ms is not None:
                settle_ms.add(t_ms - command_ms)
                command_ms = None
        if cmd.commit_scan:
            flags |= FLAG_SCAN_COMMIT
            commit_ctx = (cmd.scan_id, cmd.step, cmd.pair, lc.signal_mv, lc.idler_mv)
            committed.append((cmd.scan_id, cmd.pair, scan_start_ms, t_ms, altitude[k], settle_ms))

        if cmd.laser_on:
            flags |= FLAG_LASER_ON
        if cmd.heater_watts > 0:
            flags |= FLAG_HEATER_ON
        if cmd.mode is Mode.FAULT_HOLD:
            flags |= FLAG_FAULT_HOLD
        if any(loops[ch].railed for ch in ctrl.active_channels()):
            flags |= FLAG_BIAS_RAILED
        lc = step_settle(lc, TICK_MS)

        max_power = max(max_power, thermal_power.total_power(cmd.laser_on, cmd.heater_watts))
        temp = thermal_power.housing_step(
            temp, cmd.heater_watts, thermal_power.internal_dissipation(cmd.laser_on),
            air[k] if package_temp is None else package_temp, TICK_S)
        housing_range = [min(housing_range[0], temp), max(housing_range[1], temp)]
        if package_temp is not None:
            package_temp = package_step(package_temp, air[k], TICK_S)
            package_range = [min(package_range[0], package_temp),
                             max(package_range[1], package_temp)]
    close_period(cmd)

    scans = []
    for scan_id, pair, start_ms, commit_ms, altitude_m, settle in committed:
        signal_mv, singles_1, singles_2, coinc_raw = zip(
            *(steps[scan_id][step] for step in range(FLIGHT_SCAN.n_steps)))
        scan = ScanData(
            angles_rad=np.array([angle_from_voltage(CALIBRATION, mv / 1000.0) for mv in signal_mv]),
            dwell_s=FLIGHT_SCAN.dwell_s, singles_1=np.array(singles_1),
            singles_2=np.array(singles_2), coinc_raw=np.array(coinc_raw), pair=pair)
        fit = fit_sinusoid(scan.angles_rad, correct_accidentals(scan))
        scans.append(ScanSummary(
            scan_id=scan_id, pair=pair, t_start_ms=start_ms, t_commit_ms=commit_ms,
            visibility=fit.visibility, phase_rad=fit.phase_rad,
            rms_residual=fit.rms_residual, converged=fit.converged, altitude_m=altitude_m,
            settle_ms_values=tuple(sorted(settle)),
        ))
    summary = RunSummary(
        scenario=scenario.name, seed=scenario.seed, duration_s=scenario.duration_s,
        scans=scans, aborted_scans=aborted, records_written=flash.cursor,
        max_total_power_w=max_power,
        housing_temp_min_c=housing_range[0], housing_temp_max_c=housing_range[1],
        package_temp_min_c=package_range[0], package_temp_max_c=package_range[1],
        mode_history=mode_history, laser_activations=list(ctrl.laser_activations),
    )
    return flash, summary


def first_record_difference(sector, reference):
    """Where a flash sector first differs from a reference one: the record
    slot, its first differing field and the two values; None when the
    sectors are equal."""
    if sector == reference:
        return None
    rows, ref_rows = (np.frombuffer(s, dtype=RECORD_DTYPE) for s in (sector, reference))
    slot = int(np.flatnonzero(rows != ref_rows)[0])
    field = next(name for name in RECORD_DTYPE.names if rows[name][slot] != ref_rows[name][slot])
    return f"slot {slot} field {field}: {rows[field][slot]} != {ref_rows[field][slot]}"


def assert_same_run(run, reference):
    """Equal flash images and `RunSummary` fields, floats bit for bit; `run`
    starts with the flash and the summary. A sector that differs fails with
    its first differing record slot and field."""
    (flash, summary), (ref_flash, ref_summary) = run[:2], reference
    assert flash.cursor == ref_flash.cursor
    for name in ("sector_a", "sector_b"):
        difference = first_record_difference(getattr(flash, name), getattr(ref_flash, name))
        assert difference is None, f"{name}: {difference}"
    for f in dataclasses.fields(RunSummary):
        # repr tells floats apart bit for bit
        assert repr(getattr(summary, f.name)) == repr(getattr(ref_summary, f.name)), f.name
