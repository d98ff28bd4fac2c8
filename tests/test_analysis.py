"""Accidental correction, sinusoid fitting, and the flash pipeline."""

import csv
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsat import analysis, telemetry
from pairsat.analysis import (
    ScanData,
    correct_accidentals,
    FitResult,
    fit_oracle,
    fit_sinusoid,
    fit_sinusoids,
    scan_data_from_records,
    visibility,
)
from pairsat.lc_optics import CALIBRATION, angle_from_voltage, voltage_for_angle
from pairsat.scenarios import make_scenario, run_simulation


def table_of(records):
    """The `RECORD_DTYPE` table of a record list, in list order."""
    return telemetry.table_from_rows([astuple(r) for r in records])


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
    corrected = correct_accidentals(scan)
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
    assert correct_accidentals(no_singles)[0] == pytest.approx(200.0)
    # raw below the accidental estimate stays negative, not clamped
    faint = ScanData(
        singles_1=np.full(7, 400000), singles_2=np.full(7, 400000),
        coinc_raw=np.zeros(7, dtype=int), **base,
    )
    assert correct_accidentals(faint)[0] < 0.0


def test_dwell_must_be_finite_and_positive():
    # NaN fails `dwell_s <= 0`, and an infinite dwell corrects every step to 0
    angles = np.linspace(0.0, 6.0, 7)
    counts = np.full(7, 100)
    scan = ScanData(angles, 0.45, counts, counts, counts)
    for dwell_s in [math.nan, math.inf, 0.0, -0.45]:
        with pytest.raises(ValueError, match=f"got {dwell_s} s"):
            ScanData(angles, dwell_s, counts, counts, counts)
        scan.dwell_s = dwell_s
        with pytest.raises(ValueError, match=f"got {dwell_s} s"):
            correct_accidentals(scan)


def test_scan_data_takes_a_batch():
    # one scan per row, checked and corrected as each scan alone is
    rng = np.random.default_rng(5)
    angles = np.tile(np.linspace(0.0, 6.0, 7), (3, 1))
    s1, s2, c = rng.integers(0, 400000, (3, 3, 7))
    corrected = correct_accidentals(ScanData(angles, 0.45, s1, s2, c, np.array([0, 1, 0])))
    for row in range(3):
        alone = correct_accidentals(ScanData(angles[row], 0.45, s1[row], s2[row], c[row]))
        assert corrected[row].tobytes() == alone.tobytes()
    # as many scans in each array, but not as many steps
    with pytest.raises(ValueError, match="equal shape"):
        ScanData(angles, 0.45, s1[:, :6], s2, c)
    # one pair per scan: neither a scalar nor too few values for 3 scans
    for pair in (0, np.array([0, 1])):
        with pytest.raises(ValueError, match="one value per scan"):
            ScanData(angles, 0.45, s1, s2, c, pair)
    with pytest.raises(ValueError, match="one value per scan"):
        ScanData(angles[0], 0.45, s1[0], s2[0], c[0], np.array([0]))


def test_correction_scale_invariance():
    rng = np.random.default_rng(3)
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    s1 = rng.integers(100000, 200000, 36)
    s2 = rng.integers(100000, 200000, 36)
    c = rng.integers(500, 2000, 36)
    a = ScanData(angles, 0.45, s1, s2, c)
    b = ScanData(angles, 0.45 * 3, s1 * 3, s2 * 3, c * 3)
    np.testing.assert_allclose(
        correct_accidentals(a), correct_accidentals(b), rtol=1e-12
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


def _with(values: np.ndarray, i: int, value: float) -> np.ndarray:
    out = values.copy()
    out[i] = value
    return out


FIT_ANGLES = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
FIT_RATES = (1.0 + 0.9 * np.cos(2.0 * FIT_ANGLES - 1.0)) / 2.0


@pytest.mark.parametrize("angles, rates", [
    (FIT_ANGLES, _with(FIT_RATES, 3, math.nan)),
    (FIT_ANGLES, _with(FIT_RATES, 3, -math.inf)),
    (_with(FIT_ANGLES, 3, math.nan), FIT_RATES),
    (FIT_ANGLES, FIT_RATES * 1e160),
], ids=["nan_rate", "inf_rate", "nan_angle", "rate_square_overflows"])
def test_fit_rejects_non_finite_input(angles, rates):
    # refused by value, not returned as a "converged" fit of nan or raised
    # as a bare OverflowError, alone and beside a good row in a batch
    with pytest.raises(ValueError, match="must be finite"):
        fit_sinusoid(angles, rates)
    with pytest.raises(ValueError, match="must be finite"):
        fit_sinusoids(np.stack([FIT_ANGLES, angles]), np.stack([FIT_RATES, rates]))


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
            params = np.array([r.amplitude, 1.0, r.phase_rad, r.baseline])
            resid = rates - analysis._model(angles, params)
            return float(resid @ resid)

        scale = float(rates @ rates)
        assert sse(fit) <= sse(oracle) + 1e-6 * scale


def test_reported_visibility_accounts_for_baseline():
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    # half the flat background moved into b: reported contrast must match
    # the observable (max-min)/(max+min) of the curve
    rates = model(angles, 2000.0, 0.9, 0.3, 500.0)
    fit = fit_sinusoid(angles, rates)
    # curve extrema: A*(1 +/- v)/2 + b -> contrast 1800/3000
    assert fit.visibility == pytest.approx(0.6, abs=1e-6)
    # amplitude is the curve's peak-to-peak, baseline its minimum
    assert fit.amplitude == pytest.approx(1800.0, rel=1e-12)
    assert fit.baseline == pytest.approx(600.0, rel=1e-12)
    redrawn = analysis._model(angles, np.array([fit.amplitude, 1.0, fit.phase_rad, fit.baseline]))
    np.testing.assert_allclose(redrawn, rates, rtol=1e-12)


def test_fit_does_not_depend_on_the_rate_scale():
    # a clean curve at any scale whose largest rate squared is finite; a
    # power of two scales every sum exactly, so the fit is the same bits
    unscaled = fit_sinusoid(FIT_ANGLES, FIT_RATES)
    for scale in (1.0, 2.0**50, 1e15, 1e-165):
        fit = fit_sinusoid(FIT_ANGLES, FIT_RATES * scale)
        assert fit.converged, scale
        assert abs(fit.visibility - 0.9) < 1e-12, scale
        assert abs(fit.phase_rad - 1.0) < 1e-12, scale
    fit = fit_sinusoid(FIT_ANGLES, FIT_RATES * 2.0**50)
    assert (fit.visibility, fit.phase_rad) == (unscaled.visibility, unscaled.phase_rad)


def fit_bits(fit):
    return tuple(x.hex() if isinstance(x, float) else x for x in astuple(fit))


def fit_row(rng, kind, scale, m):
    """Angles and rates of one row: a noisy curve of either sign, noise,
    a flat row or a coarse (rounded) curve, times `scale`."""
    if rng.random() < 0.5:
        angles = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False) + rng.uniform(0.0, 0.3)
    else:
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        angles[0], angles[-1] = 0.0, rng.uniform(1.05 * math.pi, 2.0 * math.pi)
        angles.sort()
    if kind == "noise":
        rates = rng.normal(0.0, 1.0, m)
    elif kind == "flat":
        rates = np.full(m, rng.uniform(-2.0, 2.0))
    else:
        amp, v = rng.uniform(-2.0, 2.0), rng.uniform(-1.2, 1.2)
        rates = (amp * (1.0 + v * np.cos(2.0 * angles - rng.uniform(0.0, 7.0))) / 2.0
                 + rng.uniform(-0.5, 0.5) + rng.normal(0.0, rng.choice([0.0, 1e-3, 0.1]), m))
        if kind == "coarse":
            rates = np.round(rates, 1)
    return angles, rates * scale


def assert_matches_lstsq(fit, angles, rates):
    """The fit agrees with an independent least-squares solve on the
    (m, 3) design within 1e-9 of the rates' scale, carried through the
    visibility's quotient by the offset and the phase's by the half
    amplitude: a clean row's fit within a few 1e-9 relative, a row whose
    offset or sinusoid vanishes to its rounding within that rounding."""
    design = np.column_stack([np.ones_like(angles), np.cos(2.0 * angles), np.sin(2.0 * angles)])
    coef = np.linalg.lstsq(design, rates, rcond=None)[0]
    c0, c1, c2 = coef.tolist()
    half = math.hypot(c1, c2)
    tol = 1e-9 * float(np.abs(rates).max())
    if c0 != 0.0:  # an offset of exactly 0 leaves the visibility unbounded
        vis = half / c0
        assert abs(fit.visibility - vis) <= tol * (1.0 + abs(vis)) / abs(c0)
    phase = math.atan2(c2, c1) % (2.0 * math.pi)
    rms = math.sqrt(float(np.mean((design @ coef - rates) ** 2)))
    assert abs((fit.phase_rad - phase + math.pi) % (2.0 * math.pi) - math.pi) * half <= tol
    assert abs(fit.rms_residual - rms) <= tol
    assert fit.converged


# scales from 1e-165 to 1e15: the damped iteration that this fit replaced
# stopped unconverged at 1e15 and misread the phase at 1e-165
ROW_KINDS = st.sampled_from(["curve", "curve", "noise", "flat", "coarse"])
ROW_SCALES = st.sampled_from([1.0, 1.0, 3431.0, -1e3, 1e15, 1e-165])


@settings(max_examples=50, deadline=None)
@given(st.integers(6, 50), st.lists(st.tuples(ROW_KINDS, ROW_SCALES), min_size=1, max_size=64),
       st.integers(0, 2**32 - 1))
def test_batched_fit_matches_scalar_reference(m, rows, seed):
    # each row of a batch is its one-row fit bit for bit, and a flat row
    # aside, the least-squares fit of an independent solver
    rng = np.random.default_rng(seed)
    angles, rates = map(np.array, zip(*(fit_row(rng, kind, scale, m) for kind, scale in rows)))
    fits = fit_sinusoids(angles, rates)
    assert [fit_bits(f) for f in fits] == [
        fit_bits(fit_sinusoid(a, r)) for a, r in zip(angles, rates)
    ]
    for fit, a, r in zip(fits, angles, rates):
        if r.min() == r.max():
            assert fit == FitResult(0.0, 0.0, 0.0, float(r[0]), 0.0, True)
        else:
            assert_matches_lstsq(fit, a, r)


def test_batched_fit_covers_every_stop():
    # one batch holding flat rows, solved rows and a singular row: the
    # angles 0, 0, 0, pi, pi and 2 pi give cos(2 theta) = 1 at every point,
    # so the normal equations are singular and the stacked solve raises
    rng = np.random.default_rng(29)
    rows = [fit_row(rng, kind, scale, 6) for kind, scale in (
        ("curve", 1.0), ("noise", 1.0), ("flat", 1.0), ("curve", 1e15),
        ("curve", 1e-165), ("noise", 1e-165), ("coarse", 3431.0), ("curve", -1e3),
    ) for _ in range(4)]
    singular = np.array([0.0, 0.0, 0.0, math.pi, math.pi, 2.0 * math.pi])
    rows.insert(5, (singular, np.arange(6.0)))
    angles, rates = map(np.array, zip(*rows))
    design = np.stack([np.ones(6), np.cos(2.0 * singular), np.sin(2.0 * singular)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(design @ design.T, np.ones(3))
    fits = fit_sinusoids(angles, rates)
    alone = [fit_sinusoid(a, r) for a, r in zip(angles, rates)]
    assert [fit_bits(f) for f in fits] == [fit_bits(f) for f in alone]
    assert not fits[5].converged and math.isnan(fits[5].visibility)
    others = fits[:5] + fits[6:]
    assert [fit_bits(f) for f in others] == [
        fit_bits(f) for f in fit_sinusoids(np.delete(angles, 5, 0), np.delete(rates, 5, 0))
    ]
    assert all(f.converged for f in others)
    assert any(f.amplitude == 0.0 for f in others)  # the flat rows
    assert fit_sinusoids(np.empty((0, 36)), np.empty((0, 36))) == []


def make_flight_records(scan_id, pair, angles, counts, committed=True, per_step=4):
    """A scan's records in flight layout: each step's counts spread over
    `per_step` counting records (4 fit the flight's 0.45 s dwell), then the
    commit record."""
    recs = []
    t = scan_id * 100000
    for step, (theta, (s1, s2, c)) in enumerate(zip(angles, counts)):
        mv = round(voltage_for_angle(CALIBRATION, theta % (2 * math.pi)) * 1000)
        for k in range(per_step):
            share = [x // per_step + (x % per_step if k == 0 else 0) for x in (s1, s2, c)]
            recs.append(telemetry.TelemetryRecord(
                time_ms=t, scan_id=scan_id, step=step, pair_sel=pair, lc_signal_mv=mv,
                singles_1=share[0], singles_2=share[1], coinc_raw=share[2],
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
    ids, scans, mismatched = scan_data_from_records(table_of(recs), 0.45)
    assert ids == [1]
    assert mismatched == 0
    assert scans.angles_rad.shape == (1, 36)


def test_scan_grouping_sums_split_steps():
    recs = make_flight_records(
        3, 0, np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False),
        [(100, 90, 5)] * 36,
    )
    # one more counting record: the step's dwell straddles a period edge
    dup = recs[0]
    recs.insert(1, telemetry.TelemetryRecord(
        time_ms=dup.time_ms + 60, scan_id=3, step=0, pair_sel=0,
        lc_signal_mv=dup.lc_signal_mv, singles_1=11, singles_2=9, coinc_raw=2,
        flags=telemetry.FLAG_PRESENT | telemetry.FLAG_COUNTING,
    ))
    ids, scans, _ = scan_data_from_records(table_of(recs), 0.45)
    assert ids == [3]
    assert scans.singles_1[0, 0] == 111
    assert scans.coinc_raw[0, 0] == 7


def test_scan_grouping_checks_the_dwell():
    # a 0.45 s dwell counts over 4 or 5 record periods per step
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    counts = [(1000, 900, 50)] * 36
    recs = []
    for scan_id, per_step in ((1, 4), (2, 5), (3, 3), (4, 6), (5, 1)):
        recs += make_flight_records(scan_id, 0, angles, counts, per_step=per_step)
    # one step of scan 6 is a record short
    short = make_flight_records(6, 1, angles, counts)
    recs += short[:40] + short[41:]
    ids, _, mismatched = scan_data_from_records(table_of(recs), 0.45)
    assert ids == [1, 2]
    assert mismatched == 4
    # the records fit other dwells: 1 record per step is a 0.125 s dwell
    ids, _, mismatched = scan_data_from_records(table_of(recs), dwell_s=0.125)
    assert ids == [5]
    assert mismatched == 5


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
            flash, table_of(make_flight_records(scan_id, pair, angles, counts))
        )
    path = tmp_path / "flash.bin"
    telemetry.save_image(flash, str(path))
    rows = analysis.analyze_flash(str(path), str(tmp_path / "out"), dwell_s=dwell)
    assert [r["scan_id"] for r in rows] == [1, 2]
    assert [r["pair"] for r in rows] == [0, 1]
    for row in rows:
        assert 0.9 < row["visibility"] < 1.0
    # the pair is the commit record's, whatever the counting records say
    telemetry.write_redundant(flash, table_of([
        replace(r, pair_sel=1) if r.flags & telemetry.FLAG_COUNTING else r
        for r in make_flight_records(3, 0, angles, counts)
    ]))
    telemetry.save_image(flash, str(path))
    rows = analysis.analyze_flash(str(path), str(tmp_path / "out"), dwell_s=dwell)
    assert [(r["scan_id"], r["pair"]) for r in rows] == [(1, 0), (2, 1), (3, 0)]
    assert (tmp_path / "out" / "summary.csv").exists()
    with open(tmp_path / "out" / "scans.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["scan_id", "step", "angle_rad", "raw_rate_hz", "corrected_rate_hz",
                        "fit_rate_hz"]
    # each scan's 36 steps, in order
    assert [(int(row[0]), int(row[1])) for row in lines[1:]] == [
        (scan_id, step) for scan_id in (1, 2, 3) for step in range(36)]


def test_analyze_writes_the_same_three_files(lab_480s_run, tmp_path):
    # a re-run into one directory replaces every file: after a lab 480 s
    # flash (17 scans), a lab 120 s one (4 scans) leaves only its own
    out = tmp_path / "out"
    lab_480s, lab_120s = str(tmp_path / "lab480.bin"), str(tmp_path / "lab120.bin")
    telemetry.save_image(lab_480s_run.flash, lab_480s)
    telemetry.save_image(run_simulation(make_scenario("lab", duration_s=120.0, seed=1))[0],
                         lab_120s)
    assert len(analysis.analyze_flash(lab_480s, str(out))) == 17
    rows = analysis.analyze_flash(lab_120s, str(out))
    assert sorted(p.name for p in out.iterdir()) == ["flash_health.csv", "scans.csv", "summary.csv"]
    with open(out / "summary.csv", newline="") as fh:
        ids = [int(row["scan_id"]) for row in csv.DictReader(fh)]
    assert ids == [row["scan_id"] for row in rows] and len(ids) == 4
    with open(out / "scans.csv", newline="") as fh:
        steps = [(int(row["scan_id"]), int(row["step"])) for row in csv.DictReader(fh)]
    assert steps == [(scan_id, step) for scan_id in ids for step in range(36)]

    # no committed scan, or none whole: the header alone
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    cut = make_flight_records(2, 1, angles, [(360000, 330000, 2000)] * 36)[25 * 4:]
    for records in ([], cut):
        flash = telemetry.FlashImage()
        if records:
            telemetry.write_redundant(flash, table_of(records))
        telemetry.save_image(flash, str(tmp_path / "flash.bin"))
        assert analysis.analyze_flash(str(tmp_path / "flash.bin"), str(out)) == []
        assert (out / "scans.csv").read_bytes() == (
            b"scan_id,step,angle_rad,raw_rate_hz,corrected_rate_hz,fit_rate_hz\r\n")
        assert len(list(out.iterdir())) == 3


def rate_texts(values, sep):
    """Each value's text from the rate-column renderer, as `str`."""
    text = analysis._fixed3_text(np.asarray(values, dtype=float), sep)
    return [row[row != 0].tobytes().decode() for row in text.reshape(-1, text.shape[-1])]


def test_rate_text_is_exact():
    # the digits of the rate columns equal "%.3f" % v byte for byte, on the
    # values where a float-to-decimal shortcut goes wrong
    rng = np.random.default_rng(29)
    values = np.concatenate([
        np.arange(-1023, 1024, 2) / 16,  # exact ties at the third decimal
        np.arange(-4096, 4097) / 2048,
        [0.0, -0.0, 5e-324, -5e-324, -1e-4, -4.9e-4, -2.0**-11, -0.0005, 0.0005],
        [2.0**51 + 0.5, -(2.0**51 + 0.5)],
        *(rng.standard_normal(500) * scale for scale in 10.0 ** np.arange(-3, 13)),
    ])
    for sep in (",", "\r\n"):
        assert rate_texts(values, sep) == ["%.3f%s" % (v, sep) for v in values.tolist()]
    # ties round half to even, as `%` rounds; the sign is the sign bit
    assert rate_texts([0.0625, 0.1875, -0.0, -1e-4, 0.0], ",") == [
        "0.062,", "0.188,", "-0.000,", "-0.000,", "0.000,"]
    # a (scans, steps) batch keeps its shape, one text per value
    batch = values[:36 * 50].reshape(50, 36)
    assert analysis._fixed3_text(batch, ",").shape[:2] == (50, 36)
    assert rate_texts(batch, ",") == ["%.3f," % v for v in batch.ravel().tolist()]


def test_rate_text_keeps_percent_where_not_exact():
    # not finite, or at least 2**52 in size: `%` writes the text, and the
    # column's other values keep their exact digits
    values = [0.0625, np.nan, np.inf, -np.inf, 2.0**60, -0.0, 2.0**52, -(2.0**52), 1e305]
    texts = rate_texts(values, ",")
    assert texts[:6] == ["0.062,", "nan,", "inf,", "-inf,", "1152921504606846976.000,", "-0.000,"]
    assert texts == ["%.3f," % v for v in values]
    assert rate_texts([np.nan], "\r\n") == ["nan\r\n"]


def test_scans_csv_rows_are_the_percent_format():
    # ids, steps and angles formatted once per distinct value; -0.0 and 0.0
    # are distinct angles, as `%` writes them
    rng = np.random.default_rng(7)
    angles = np.resize([0.0, -0.0, 0.1, math.pi, 2 * math.pi], (3, 6))
    rates = [rng.standard_normal((3, 6)) * 10.0 ** k for k in (2, 4, 6)]
    ids = [4, 17, 65535]
    expected = "".join(
        "%d,%d,%.6f,%.3f,%.3f,%.3f\r\n" % (scan_id, step, angles[i, step],
                                             *(r[i, step] for r in rates))
        for i, scan_id in enumerate(ids) for step in range(6))
    assert analysis._scans_csv_rows(ids, angles, rates) == expected.encode()
    none = np.zeros((0, 36))
    assert analysis._scans_csv_rows([], none, [none] * 3) == b""


def test_scan_grouping_drops_partial_scans(tmp_path):
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    counts = [(360000, 330000, 2000)] * 36
    whole = make_flight_records(1, 0, angles, counts)
    # the ring wrap overwrites the oldest slots: scan 2 keeps its commit
    # marker and its last 11 steps
    cut = make_flight_records(2, 1, angles, counts)[25 * 4:]
    # a scan that skipped a step in the middle is partial as well
    gap = [r for r in make_flight_records(3, 0, angles, counts) if r.step != 17
           or r.flags & telemetry.FLAG_SCAN_COMMIT]
    # a partial scan's drive voltage is never looked up, so one outside the
    # calibration (a u16 field holds up to 65535 mV) cannot stop the analysis
    bad = [replace(r, lc_signal_mv=9000) if r.step == 30 else r
           for r in make_flight_records(4, 1, angles, counts)[25 * 4:]]
    ids, _, mismatched = scan_data_from_records(table_of(whole + cut + gap + bad), 0.45)
    assert ids == [1]
    assert mismatched == 0

    flash = telemetry.FlashImage()
    telemetry.write_redundant(flash, table_of(cut + whole + gap + bad))
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
        "dwell_mismatch_scans_dropped": "0",
    }]


def test_wrapped_ring_drops_the_scan_of_its_oldest_record(tmp_path):
    # a step whose dwell starts mid-period spans 5 records; with its first
    # one overwritten its 4 still fit the dwell, and only the wrap flag
    # tells that the scan was cut
    angles = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    counts = [(360000, 330000, 2000)] * 36
    cut = make_flight_records(1, 0, angles, counts, per_step=5)[1:]
    whole = make_flight_records(2, 1, angles, counts)
    wrapped = [replace(r, flags=r.flags | telemetry.FLAG_WRAPPED) for r in whole]

    def analyze(records):
        flash = telemetry.FlashImage()
        telemetry.write_redundant(flash, table_of(records))
        telemetry.save_image(flash, str(tmp_path / "flash.bin"))
        rows = analysis.analyze_flash(str(tmp_path / "flash.bin"), str(tmp_path / "out"))
        with open(tmp_path / "out" / analysis.HEALTH_CSV, newline="") as fh:
            health = next(csv.DictReader(fh))
        return ([r["scan_id"] for r in rows], health["partial_scans_dropped"],
                health["dwell_mismatch_scans_dropped"])

    assert analyze(cut + whole) == ([1, 2], "0", "0")  # the ring never wrapped
    assert analyze(cut + wrapped) == ([2], "1", "0")


def dict_grouping(records, calibration, dwell_s=0.45, n_steps=36):
    """Per-record grouping, kept as the reference for the table grouping:
    the scans it returns, and how many complete scans miss the dwell."""
    pairs = {
        r.scan_id: r.pair_sel for r in records
        if r.flags & telemetry.FLAG_SCAN_COMMIT and r.scan_id != 0
    }
    fewest = math.ceil(dwell_s / 0.125)
    steps = {}
    volts = {}
    for r in records:
        if r.scan_id not in pairs or not r.flags & telemetry.FLAG_COUNTING:
            continue
        acc = steps.setdefault(r.scan_id, {}).setdefault(
            r.step, {"s1": 0, "s2": 0, "c": 0, "records": 0})
        acc["s1"] += r.singles_1
        acc["s2"] += r.singles_2
        acc["c"] += r.coinc_raw
        acc["records"] += 1
        volts.setdefault(r.scan_id, {})[r.step] = r.lc_signal_mv
    out = {}
    mismatched = 0
    for scan_id, per_step in sorted(steps.items()):
        order = sorted(per_step)
        if order != list(range(n_steps)):
            continue
        if any(not fewest <= acc["records"] <= fewest + 1 for acc in per_step.values()):
            mismatched += 1
            continue
        out[scan_id] = ScanData(
            angles_rad=np.array([
                angle_from_voltage(calibration, volts[scan_id][k] / 1000.0) for k in order
            ]),
            dwell_s=dwell_s,
            singles_1=np.array([per_step[k]["s1"] for k in order]),
            singles_2=np.array([per_step[k]["s2"] for k in order]),
            coinc_raw=np.array([per_step[k]["c"] for k in order]),
            pair=pairs[scan_id],
        )
    return out, mismatched


COUNTS = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))


@st.composite
def scan_records(draw):
    """Records of a few scans in flight layout, with their variations:
    steps split over several periods, settle periods, missing or extra
    steps, a step too long for the dwell, uncommitted (aborted) scans,
    reused scan ids, pair changes, idle records, and an order that need
    not be time order."""
    records = []
    t = 0
    for _ in range(draw(st.integers(0, 4))):
        scan_id = draw(st.integers(0, 5))
        shape = draw(st.sampled_from(["whole", "whole", "whole", "missing", "extra", "swap",
                                      "long"]))
        missing = draw(st.sets(st.integers(0, 35), min_size=1, max_size=3)) \
            if shape in ("missing", "swap") else set()
        # a swap replaces the missing steps with as many out of range
        extra = list(range(36, 36 + max(len(missing), 1))) if shape in ("extra", "swap") else []
        # a long step has one counting record more than the dwell allows
        long_step = draw(st.integers(0, 35)) if shape == "long" else None
        for step in [k for k in range(36) if k not in missing] + extra:
            if draw(st.booleans()):
                records.append(telemetry.TelemetryRecord(
                    time_ms=t, scan_id=scan_id, step=step, singles_1=draw(st.integers(0, 999)),
                ))
                t += 125
            for _ in range(3 if step == long_step else draw(st.integers(1, 2))):
                s1, s2, c = draw(COUNTS)
                records.append(telemetry.TelemetryRecord(
                    time_ms=t, scan_id=scan_id, step=step, pair_sel=draw(st.integers(0, 1)),
                    lc_signal_mv=draw(st.integers(0, 8000)), singles_1=s1, singles_2=s2,
                    coinc_raw=c, flags=telemetry.FLAG_PRESENT | telemetry.FLAG_COUNTING,
                ))
                t += 125
        if draw(st.sampled_from([True, True, False])):
            records.append(telemetry.TelemetryRecord(
                time_ms=t, scan_id=scan_id, step=35, pair_sel=draw(st.integers(0, 1)),
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
    # 1 or 2 counting records per step fit a 0.125 s dwell
    expected, expected_mismatched = dict_grouping(records, CALIBRATION, dwell_s=0.125)
    ids, got, mismatched = scan_data_from_records(table_of(records), dwell_s=0.125)
    assert ids == list(expected)
    assert mismatched == expected_mismatched
    # the batch holds the kept scans as rows, in the order of their ids
    assert got.pair.shape == (len(ids),)
    for name in ("angles_rad", "singles_1", "singles_2", "coinc_raw"):
        assert getattr(got, name).shape == (len(ids), 36)
    for row, scan_id in enumerate(ids):
        ref = expected[scan_id]
        assert got.angles_rad[row].tobytes() == ref.angles_rad.tobytes()
        assert (got.dwell_s, got.pair[row]) == (ref.dwell_s, ref.pair)
        for name in ("singles_1", "singles_2", "coinc_raw"):
            assert getattr(got, name)[row].dtype == getattr(ref, name).dtype
            assert np.array_equal(getattr(got, name)[row], getattr(ref, name))

