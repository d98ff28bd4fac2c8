"""Accidental correction, sinusoid fitting, and the flash pipeline."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsat import analysis, telemetry
from pairsat.analysis import (
    ScanData,
    correct_accidentals,
    fit_oracle,
    fit_sinusoid,
    scan_data_from_records,
    visibility,
)
from pairsat.lc_optics import angle_from_voltage, default_calibration, voltage_for_angle


def model(theta, amp, v, phi, base):
    return amp * (1.0 + v * np.cos(2.0 * theta - phi)) / 2.0 + base


def test_visibility_arithmetic():
    assert visibility(3600.0, 92.3) == pytest.approx(0.950, abs=5e-4)
    assert visibility(7.0, 7.0) == 0.0
    assert visibility(7.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        visibility(0.0, 0.0)


def test_correct_accidentals_example():
    scan = ScanData(
        angles_rad=np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        dwell_s=1.0,
        singles_1=np.full(7, 360000),
        singles_2=np.full(7, 330000),
        coinc_raw=np.full(7, 4500),
    )
    corrected = correct_accidentals(scan, 9e-9)
    assert corrected[0] == pytest.approx(3430.8)


def test_correct_accidentals_limits():
    base = dict(
        angles_rad=np.linspace(0.0, 6.0, 7),
        dwell_s=0.5,
    )
    no_singles = ScanData(
        singles_1=np.zeros(7, dtype=int), singles_2=np.zeros(7, dtype=int),
        coinc_raw=np.full(7, 100), **base,
    )
    assert correct_accidentals(no_singles, 9e-9)[0] == pytest.approx(200.0)
    # raw below the accidental estimate stays negative, not clamped
    faint = ScanData(
        singles_1=np.full(7, 400000), singles_2=np.full(7, 400000),
        coinc_raw=np.zeros(7, dtype=int), **base,
    )
    assert correct_accidentals(faint, 9e-9)[0] < 0.0


def test_correction_scale_invariance():
    rng = np.random.default_rng(3)
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    s1 = rng.integers(100000, 200000, 36)
    s2 = rng.integers(100000, 200000, 36)
    c = rng.integers(500, 2000, 36)
    a = ScanData(angles, 0.45, s1, s2, c)
    b = ScanData(angles, 0.45 * 3, s1 * 3, s2 * 3, c * 3)
    np.testing.assert_allclose(
        correct_accidentals(a, 9e-9), correct_accidentals(b, 9e-9), rtol=1e-12
    )


def test_fit_noiseless_recovery():
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    for phi in (0.0, 0.7, 2.0, 4.5):
        rates = model(angles, 3431.0, 0.95, phi, 0.0)
        fit = fit_sinusoid(angles, rates)
        assert fit.converged
        assert abs(fit.visibility - 0.95) < 1e-6
        assert abs((fit.phase_rad - phi + math.pi) % (2 * math.pi) - math.pi) < 1e-6


def test_fit_flat_data():
    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    fit = fit_sinusoid(angles, np.full(12, 500.0))
    assert fit.visibility == pytest.approx(0.0, abs=1e-9)
    assert fit.amplitude == pytest.approx(0.0, abs=1e-6)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_sinusoid(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.ones(5))  # too few
    narrow = np.linspace(0.0, 2.0, 8)  # spans less than pi
    with pytest.raises(ValueError):
        fit_sinusoid(narrow, np.ones(8))


def test_fit_phase_offset_invariance():
    rng = np.random.default_rng(5)
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    clean = model(angles, 3431.0, 0.9, 1.1, 50.0)
    noisy = clean + rng.normal(0.0, 20.0, clean.size)
    v0 = fit_sinusoid(angles, noisy).visibility
    v1 = fit_sinusoid(angles + 0.37, noisy).visibility
    assert abs(v0 - v1) < 1e-6


def test_fit_monte_carlo_bias():
    # bench-scale shot noise: mean fitted contrast lands close to truth
    rng = np.random.default_rng(11)
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    dwell = 0.45
    vs = []
    for _ in range(100):
        true = model(angles, 3431.0, 0.95, 0.4, 0.0) + 1069.2
        counts = rng.poisson(true * dwell)
        corrected = counts / dwell - 1069.2
        vs.append(fit_sinusoid(angles, corrected).visibility)
    assert abs(float(np.mean(vs)) - 0.95) < 0.01


def test_fit_never_loses_to_grid_oracle():
    rng = np.random.default_rng(17)
    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    for _ in range(5):
        clean = model(angles, 1000.0, 0.8, float(rng.uniform(0, 2 * math.pi)), 30.0)
        rates = clean + rng.normal(0.0, 25.0, clean.size)
        fit = fit_sinusoid(angles, rates)
        oracle = fit_oracle(angles, rates)

        def sse(r):
            params = np.array([r.amplitude, r.raw_v, r.phase_rad, r.baseline])
            resid = rates - analysis._model(angles, params)
            return float(resid @ resid)

        scale = float(rates @ rates)
        assert sse(fit) <= sse(oracle) + 1e-6 * scale


def test_reported_visibility_accounts_for_baseline():
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    # half the flat background moved into b: reported contrast must match
    # the observable (max-min)/(max+min) of the curve, not the raw v
    rates = model(angles, 2000.0, 0.9, 0.3, 500.0)
    fit = fit_sinusoid(angles, rates)
    # curve extrema: A*(1 +/- v)/2 + b -> contrast 1800/3000
    assert fit.visibility == pytest.approx(0.6, abs=1e-6)
    assert fit.visibility < fit.raw_v  # flat background dilutes the contrast


def make_flight_records(scan_id, pair, angles, counts, committed=True):
    cal = default_calibration()
    recs = []
    t = scan_id * 100000
    for step, (theta, (s1, s2, c)) in enumerate(zip(angles, counts)):
        mv = round(voltage_for_angle(cal, theta % (2 * math.pi)) * 1000)
        recs.append(telemetry.TelemetryRecord(
            time_ms=t, scan_id=scan_id, step=step, pair_sel=pair,
            lc_signal_mv=mv, singles_1=s1, singles_2=s2, coinc_raw=c,
            flags=telemetry.FLAG_PRESENT | telemetry.FLAG_COUNTING,
        ))
        t += 125
    if committed:
        recs.append(telemetry.TelemetryRecord(
            time_ms=t, scan_id=scan_id, step=len(angles) - 1, pair_sel=pair,
            flags=telemetry.FLAG_PRESENT | telemetry.FLAG_SCAN_COMMIT,
        ))
    return recs


def test_scan_grouping_drops_uncommitted():
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    counts = [(1000, 900, 50)] * 36
    recs = make_flight_records(1, 0, angles, counts, committed=True)
    recs += make_flight_records(2, 1, angles, counts, committed=False)
    scans = scan_data_from_records(recs, default_calibration())
    assert list(scans) == [1]
    assert len(scans[1].angles_rad) == 36


def test_scan_grouping_sums_split_steps():
    cal = default_calibration()
    recs = make_flight_records(
        3, 0, np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False),
        [(100, 90, 5)] * 36,
    )
    # duplicate one counting record: same step split across two periods
    dup = recs[0]
    recs.insert(1, telemetry.TelemetryRecord(
        time_ms=dup.time_ms + 60, scan_id=3, step=0, pair_sel=0,
        lc_signal_mv=dup.lc_signal_mv, singles_1=11, singles_2=9, coinc_raw=2,
        flags=telemetry.FLAG_PRESENT | telemetry.FLAG_COUNTING,
    ))
    scans = scan_data_from_records(recs, cal)
    assert scans[3].singles_1[0] == 111
    assert scans[3].coinc_raw[0] == 7


def test_analyze_flash_pipeline(tmp_path):
    rng = np.random.default_rng(23)
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    dwell = 0.45
    flash = telemetry.FlashImage()
    for scan_id, pair in ((1, 0), (2, 1)):
        true = model(angles, 3431.0, 0.95, 0.0 if pair == 0 else math.pi, 0.0) + 1069.2
        counts = [
            (int(rng.poisson(360000 * dwell)), int(rng.poisson(330000 * dwell)),
             int(rng.poisson(r * dwell)))
            for r in true
        ]
        telemetry.write_redundant(
            flash, make_flight_records(scan_id, pair, angles, counts)
        )
    path = tmp_path / "flash.bin"
    telemetry.save_image(flash, str(path))
    rows = analysis.analyze_flash(str(path), str(tmp_path / "out"), dwell_s=dwell)
    assert [r["scan_id"] for r in rows] == [1, 2]
    assert [r["pair"] for r in rows] == [0, 1]
    for row in rows:
        assert 0.9 < row["visibility"] < 1.0
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "scan_00001.csv").exists()
    lines = (tmp_path / "out" / "scan_00002.csv").read_text().strip().splitlines()
    assert lines[0] == "angle_rad,raw_rate_hz,corrected_rate_hz,fit_rate_hz"
    assert len(lines) == 37


def test_scan_grouping_drops_partial_scans(tmp_path):
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    counts = [(360000, 330000, 2000)] * 36
    whole = make_flight_records(1, 0, angles, counts)
    # the ring wrap overwrites the oldest slots: scan 2 keeps its commit
    # marker and its last 11 steps
    cut = make_flight_records(2, 1, angles, counts)[25:]
    # a scan that skipped a step in the middle is partial as well
    gap = [r for r in make_flight_records(3, 0, angles, counts) if r.step != 17
           or r.flags & telemetry.FLAG_SCAN_COMMIT]
    # a partial scan's drive voltage is never looked up, so one outside the
    # calibration (a u16 field holds up to 65535 mV) cannot stop the analysis
    bad = [replace(r, lc_signal_mv=9000) if r.step == 30 else r
           for r in make_flight_records(4, 1, angles, counts)[25:]]
    scans = scan_data_from_records(whole + cut + gap + bad, default_calibration())
    assert list(scans) == [1]

    flash = telemetry.FlashImage()
    telemetry.write_redundant(flash, cut + whole + gap + bad)
    path = tmp_path / "flash.bin"
    telemetry.save_image(flash, str(path))
    rows = analysis.analyze_flash(str(path), str(tmp_path / "out"))
    assert [r["scan_id"] for r in rows] == [1]
    with open(tmp_path / "out" / analysis.HEALTH_CSV, newline="") as fh:
        health = list(csv.DictReader(fh))
    written = len(whole) + len(cut) + len(gap) + len(bad)
    assert health == [{
        "valid_a": str(written), "repaired_from_b": "0", "doubly_corrupt": "0",
        "blank": str(telemetry.SECTOR_CAPACITY - written), "partial_scans_dropped": "3",
    }]


def dict_grouping(records, calibration, dwell_s=0.45, n_steps=36):
    """Per-record grouping, kept as the reference for the table grouping:
    the scans it returns, and each scan's pair."""
    committed = {
        r.scan_id for r in records
        if r.flags & telemetry.FLAG_SCAN_COMMIT and r.scan_id != 0
    }
    steps = {}
    volts = {}
    pairs = {}
    for r in records:
        if r.flags & telemetry.FLAG_COUNTING:
            pairs[r.scan_id] = r.pair_sel
        if r.scan_id not in committed or not r.flags & telemetry.FLAG_COUNTING:
            continue
        acc = steps.setdefault(r.scan_id, {}).setdefault(r.step, {"s1": 0, "s2": 0, "c": 0})
        acc["s1"] += r.singles_1
        acc["s2"] += r.singles_2
        acc["c"] += r.coinc_raw
        volts.setdefault(r.scan_id, {})[r.step] = r.lc_signal_mv
    out = {}
    for scan_id, per_step in sorted(steps.items()):
        order = sorted(per_step)
        if order != list(range(n_steps)):
            continue
        out[scan_id] = ScanData(
            angles_rad=np.array([
                angle_from_voltage(calibration, volts[scan_id][k] / 1000.0) for k in order
            ]),
            dwell_s=dwell_s,
            singles_1=np.array([per_step[k]["s1"] for k in order]),
            singles_2=np.array([per_step[k]["s2"] for k in order]),
            coinc_raw=np.array([per_step[k]["c"] for k in order]),
        )
    return out, pairs


COUNTS = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))


@st.composite
def scan_records(draw):
    """Records of a few scans in flight layout, with their variations:
    steps split over several periods, settle periods, missing or extra
    steps, uncommitted (aborted) scans, reused scan ids, pair changes,
    idle records, and an order that need not be time order."""
    records = []
    t = 0
    for _ in range(draw(st.integers(0, 4))):
        scan_id = draw(st.integers(0, 5))
        shape = draw(st.sampled_from(["whole", "whole", "whole", "missing", "extra", "swap"]))
        missing = draw(st.sets(st.integers(0, 35), min_size=1, max_size=3)) \
            if shape in ("missing", "swap") else set()
        # a swap replaces the missing steps with as many out of range
        extra = list(range(36, 36 + max(len(missing), 1))) if shape in ("extra", "swap") else []
        for step in [k for k in range(36) if k not in missing] + extra:
            if draw(st.booleans()):
                records.append(telemetry.TelemetryRecord(
                    time_ms=t, scan_id=scan_id, step=step, singles_1=draw(st.integers(0, 999)),
                ))
                t += 125
            for _ in range(draw(st.integers(1, 2))):
                s1, s2, c = draw(COUNTS)
                records.append(telemetry.TelemetryRecord(
                    time_ms=t, scan_id=scan_id, step=step, pair_sel=draw(st.integers(0, 1)),
                    lc_signal_mv=draw(st.integers(0, 8000)), singles_1=s1, singles_2=s2,
                    coinc_raw=c, flags=telemetry.FLAG_PRESENT | telemetry.FLAG_COUNTING,
                ))
                t += 125
        if draw(st.sampled_from([True, True, False])):
            records.append(telemetry.TelemetryRecord(
                time_ms=t, scan_id=scan_id, step=35,
                flags=telemetry.FLAG_PRESENT | telemetry.FLAG_SCAN_COMMIT,
            ))
            t += 125
        for _ in range(draw(st.integers(0, 2))):
            records.append(telemetry.TelemetryRecord(
                time_ms=t, flags=draw(st.integers(0, 255)) & ~telemetry.FLAG_SCAN_COMMIT,
            ))
            t += 125
    return draw(st.permutations(records)) if draw(st.booleans()) else records


@settings(max_examples=60, deadline=None)
@given(scan_records())
def test_table_grouping_matches_dict_reference(records):
    cal = default_calibration()
    expected, pairs = dict_grouping(records, cal)
    table = telemetry.table_from_records(records)
    for got in (scan_data_from_records(records, cal), scan_data_from_records(table, cal)):
        assert list(got) == list(expected)
        for scan_id, scan in got.items():
            ref = expected[scan_id]
            assert scan.angles_rad.tobytes() == ref.angles_rad.tobytes()
            assert scan.dwell_s == ref.dwell_s
            for name in ("singles_1", "singles_2", "coinc_raw"):
                assert getattr(scan, name).dtype == getattr(ref, name).dtype
                assert np.array_equal(getattr(scan, name), getattr(ref, name))
    assert analysis._last_pairs(table) == pairs

