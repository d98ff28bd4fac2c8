"""Ground-side analysis: accidental correction and sinusoid visibility fits.

The coincidence rate versus analyzer angle is modeled as

    r(theta) = A * (1 + v * cos(2*theta - phi)) / 2 + b

whose four parameters are not independently identifiable: only the offset
c0 = A/2 + b, the amplitude A*v/2 and the phase are. The same curve is
c0 + c1*cos(2*theta) + c2*sin(2*theta), linear in (c0, c1, c2), so the fit
is the exact least-squares solution of each scan's 3x3 normal equations, a
batch of scans in one stacked solve (`fit_sinusoids`, used by the flight
engine and by `analyze_flash`), each row bit for bit as a fit of that row
alone. With h = hypot(c1, c2) the fit reports the visibility, the contrast
h/c0 of the fitted curve; the phase atan2(c2, c1); the amplitude 2h, the
curve's peak-to-peak; and the baseline c0 - h, its minimum, so that
(amplitude, 1, phase, baseline) redraws the curve.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import physics, telemetry
from .controller import FLIGHT_SCAN
from .lc_optics import CALIBRATION, angle_from_voltage

_ROW = np.dtype((np.void, telemetry.RECORD_BYTES))

HEALTH_CSV = "flash_health.csv"


def _check_dwell(dwell_s: float) -> None:
    if not 0 < dwell_s < math.inf:
        raise ValueError(f"dwell must be finite and positive, got {dwell_s} s")


@dataclass
class ScanData:
    """Per-step counts of one completed scan, keyed by analyzer angle, or of
    a batch of scans: then each per-step array is (scans, steps), one row
    per scan, and `pair` holds one value per scan."""

    angles_rad: np.ndarray
    dwell_s: float
    singles_1: np.ndarray
    singles_2: np.ndarray
    coinc_raw: np.ndarray
    pair: int | np.ndarray = 0  # detector pair, 0 = 1&4, 1 = 2&3

    def __post_init__(self) -> None:
        shape = np.shape(self.angles_rad)
        if not (np.shape(self.singles_1) == np.shape(self.singles_2)
                == np.shape(self.coinc_raw) == shape):
            raise ValueError("all per-step arrays must have equal shape")
        if np.shape(self.pair) != shape[:-1]:
            raise ValueError(f"pair must have shape {shape[:-1]}, one value per scan, "
                             f"got {np.shape(self.pair)}")
        _check_dwell(self.dwell_s)
        if np.any(self.angles_rad < 0) or np.any(self.angles_rad > 2 * math.pi):
            raise ValueError("angles must lie in [0, 2*pi]")
        if min(self.singles_1.min(initial=0), self.singles_2.min(initial=0),
               self.coinc_raw.min(initial=0)) < 0:
            raise ValueError("counts must be nonnegative")


@dataclass
class FitResult:
    amplitude: float
    visibility: float
    phase_rad: float
    baseline: float
    rms_residual: float
    converged: bool


# the fit's columns of both per-scan summary CSVs: `analyze_flash`'s
# summary.csv and the flight's `scenarios.summary_to_csv`
FIT_COLUMNS = ("visibility", "phase_rad", "rms_residual", "converged")


def fit_columns(fit: FitResult) -> list:
    """The `FIT_COLUMNS` cells of a fit, or of a flight `ScanSummary`, which
    carries the same four fields: the visibility and the phase to 6 places,
    the residual to 3, and converged as 1 or 0."""
    return [f"{fit.visibility:.6f}", f"{fit.phase_rad:.6f}", f"{fit.rms_residual:.3f}",
            int(fit.converged)]


def visibility(max_rate: float, min_rate: float) -> float:
    """Contrast (max - min)/(max + min)."""
    if max_rate + min_rate <= 0:
        raise ValueError("max + min must be positive")
    return (max_rate - min_rate) / (max_rate + min_rate)


def correct_accidentals(scan: ScanData) -> np.ndarray:
    """Per-step corrected rates of a scan, or of each scan of a batch: raw
    rate minus the singles-product accidental in the flight's coincidence
    window, `physics.COINCIDENCE_WINDOW_S`.

    Estimator is unbiased, so negative values are preserved rather than
    clamped.
    """
    dwell = scan.dwell_s
    _check_dwell(dwell)
    raw = scan.coinc_raw / dwell
    acc = (scan.singles_1 / dwell) * (scan.singles_2 / dwell) * physics.COINCIDENCE_WINDOW_S
    return raw - acc


def _model(angles: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The curve for parameters (A, v, phi, b), or one curve per row of each."""
    amp, v, phi, base = np.asarray(p).T[..., None]
    return amp * (1.0 + v * np.cos(2.0 * angles - phi)) / 2.0 + base


def _check_fit_inputs(angles: np.ndarray, rates: np.ndarray) -> None:
    if angles.shape[-1] < 6:
        raise ValueError("need at least 6 points")
    if np.any(np.ptp(angles, axis=-1) <= math.pi):
        raise ValueError("points must span more than pi of analyzer angle")
    if angles.shape != rates.shape:
        raise ValueError("angles and rates must have equal length")
    with np.errstate(over="ignore"):  # the rms residual squares a scan's residuals
        if not (np.isfinite(angles).all() and np.isfinite(np.abs(rates).max(axis=-1) ** 2).all()):
            raise ValueError("angles, rates and each scan's largest |rate| squared must be finite")


def _results(coef: np.ndarray, angles: np.ndarray, rates: np.ndarray) -> list[FitResult]:
    """The fit of each row from its coefficients (c0, c1, c2) of
    c0 + c1*cos(2*theta) + c2*sin(2*theta); NaN coefficients are a fit that
    did not converge."""
    c0, c1, c2 = coef.T
    converged = ~np.isnan(coef).any(axis=1)
    half = np.hypot(c1, c2)
    params = np.stack([2.0 * half, np.ones_like(half),
                       np.arctan2(c2, c1) % (2.0 * math.pi), c0 - half], axis=1)
    rms = np.sqrt(np.mean((_model(angles, params) - rates) ** 2, axis=-1))
    vis = np.divide(half, c0, out=np.zeros_like(c0), where=c0 != 0)
    return [
        FitResult(amp, v, phi, base, r, ok)
        for (amp, _, phi, base), v, r, ok
        in zip(params.tolist(), vis.tolist(), rms.tolist(), converged.tolist())
    ]


def fit_sinusoids(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> list[FitResult]:
    """Least-squares fits of the coincidence sinusoid, one per row of
    (n, m) analyzer angles and accidental-corrected rates, each row at
    least 6 points spanning more than pi.

    The model is linear in c0 + c1*cos(2*theta) + c2*sin(2*theta), so the
    fit is exact: each row's 3x3 normal equations, summed a row at a time,
    are solved in one stacked solve. A row whose system is singular (its
    angles all a multiple of pi apart, say) reads NaN and not converged;
    a flat row reads amplitude 0 at its one rate. Every sum and solve a
    row sees is the one a fit of that row alone computes, so its result
    does not depend on the other rows. ``visibility`` is the contrast of
    the fitted curve and may exceed 1 under noise (flagged by value, not
    clamped).
    """
    angles = np.asarray(angles_rad, dtype=float)
    rates = np.asarray(corrected_rates, dtype=float)
    if angles.ndim != 2:
        raise ValueError("angles and rates must be (scans, points) arrays")
    _check_fit_inputs(angles, rates)

    design = np.stack([np.ones_like(angles), np.cos(2.0 * angles), np.sin(2.0 * angles)], axis=1)
    normal = (design[:, :, None, :] * design[:, None, :, :]).sum(axis=-1)
    rhs = (design * rates[:, None, :]).sum(axis=-1)[..., None]
    try:
        coef = np.linalg.solve(normal, rhs)[..., 0]
    except np.linalg.LinAlgError:  # some row is singular: solve one row at a time
        coef = np.full(rhs.shape[:2], np.nan)
        for i in range(len(normal)):
            with contextlib.suppress(np.linalg.LinAlgError):
                coef[i] = np.linalg.solve(normal[i : i + 1], rhs[i : i + 1])[0, :, 0]
    fits = _results(coef, angles, rates)
    ymax = rates.max(axis=1)
    for i in np.flatnonzero(ymax == rates.min(axis=1)).tolist():
        fits[i] = FitResult(0.0, 0.0, 0.0, float(ymax[i]), 0.0, True)
    return fits


def fit_sinusoid(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> FitResult:
    """Fit one scan's angles and corrected rates: a one-row `fit_sinusoids`."""
    return fit_sinusoids(np.asarray(angles_rad, dtype=float)[None],
                         np.asarray(corrected_rates, dtype=float)[None])[0]


def fit_oracle(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> FitResult:
    """Exhaustive lattice search over (A, v, phi, b), refined once.

    Test-only reference implementation: slower and coarser than the
    closed-form fit, but with no algebra to trust.
    """
    angles = np.asarray(angles_rad, dtype=float)
    rates = np.asarray(corrected_rates, dtype=float)
    _check_fit_inputs(angles, rates)

    ymax, ymin = float(rates.max()), float(rates.min())
    if ymax == ymin:
        return FitResult(0.0, 0.0, 0.0, ymax, 0.0, True)
    spread = ymax - ymin

    grids = {
        "amp": np.linspace(0.25 * spread, 3.0 * spread, 10),
        "v": np.linspace(0.0, 1.2, 13),
        "phi": np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False),
        "base": np.linspace(ymin - 0.5 * spread, ymax, 9),
    }
    best_p = None
    for _pass in range(2):
        mesh = np.meshgrid(*grids.values(), indexing="ij")
        params = np.stack([m.ravel() for m in mesh], axis=1)
        curves = (
            params[:, 0:1] * (1.0 + params[:, 1:2] * np.cos(2.0 * angles[None, :] - params[:, 2:3])) / 2.0
            + params[:, 3:4]
        )
        sse = ((curves - rates[None, :]) ** 2).sum(axis=1)
        best_p = params[int(np.argmin(sse))]
        refined = {}
        for j, (name, grid) in enumerate(grids.items()):
            spacing = grid[1] - grid[0]
            refined[name] = np.linspace(best_p[j] - spacing, best_p[j] + spacing, len(grid))
        grids = refined
    amp, v, phi, base = best_p
    half = amp * v / 2.0
    return _results(np.array([[amp / 2.0 + base, half * math.cos(phi), half * math.sin(phi)]]),
                    angles[None], rates[None])[0]


def _take_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """`table[index]`, gathered as whole 32-byte rows: a structured
    gather copies field by field."""
    return table.view(_ROW)[index].view(table.dtype)


def _commit_pairs(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero scan ids carrying a commit marker, ascending, and the
    pair_sel of each one's last commit record."""
    commits = table[((table["flags"] & telemetry.FLAG_SCAN_COMMIT) != 0)
                    & (table["scan_id"] != 0)][::-1]
    ids, last = np.unique(commits["scan_id"], return_index=True)
    return ids, commits["pair_sel"][last]


def scan_data_from_records(table: np.ndarray, dwell_s: float) -> tuple[list[int], ScanData, int]:
    """Group flash records into the step data of a batch of scans.

    `table` is a `telemetry.RECORD_DTYPE` table, as the `rows` of
    `telemetry.read_records(flash, as_table=True)`; a dwell that is not
    finite and positive raises ValueError naming it. Only complete scans
    are kept: a scan with a commit marker whose counting records cover
    exactly the steps 0..n_steps-1 of `controller.FLIGHT_SCAN`. Records of
    aborted scans stay in the flash but are dropped here, and so are
    partial scans, such as a committed scan whose first steps the ring wrap
    overwrote. A dwell of d counts over
    ceil(d / 0.125 s) record periods, or one more; a complete scan with a
    step of any other number of counting records is dropped and counted.
    Counts for a step are the sum over its record periods (settle periods
    contribute zero), the analyzer angle is recomputed from the drive
    voltage of the step's last record, in the order given, through the
    flight LC curve (`lc_optics.CALIBRATION`), and the pair is that of the
    scan's last commit record. Returns the kept scans' ids, ascending; one
    `ScanData` holding them as a batch, row i the scan of id i; and the
    number dropped for the dwell.
    """
    return _group_scans(table, *_commit_pairs(table), dwell_s)


def _group_scans(table: np.ndarray, commit_ids: np.ndarray, pairs: np.ndarray,
                 dwell_s: float) -> tuple[list[int], ScanData, int]:
    """`scan_data_from_records` of only the scans of `commit_ids`, all or
    some of what `_commit_pairs` gives: no row of another id is read."""
    _check_dwell(dwell_s)
    n = FLIGHT_SCAN.n_steps
    index = np.flatnonzero(np.isin(table["scan_id"], commit_ids)
                           & ((table["flags"] & telemetry.FLAG_COUNTING) != 0))
    if len(index) == 0:
        none = np.zeros((0, n), np.int64)
        return [], ScanData(none.astype(float), dwell_s, none, none, none, pairs[:0]), 0
    # stable: order kept per step
    index = index[np.lexsort((table["step"][index], table["scan_id"][index]))]
    rows = _take_rows(table, index)
    scan_id, step = rows["scan_id"], rows["step"]
    starts = np.flatnonzero(np.r_[True, (scan_id[1:] != scan_id[:-1]) | (step[1:] != step[:-1])])
    last = np.r_[starts[1:], len(rows)] - 1

    # Per (scan, step) group; a scan is complete when its groups are n_steps
    # distinct steps running from 0 to n_steps - 1.
    group_scan, group_step = scan_id[starts], step[starts]
    scan_starts = np.flatnonzero(np.r_[True, group_scan[1:] != group_scan[:-1]])
    n_groups = np.diff(np.r_[scan_starts, len(starts)])
    complete = ((n_groups == n) & (group_step[scan_starts] == 0)
                & (group_step[scan_starts + n_groups - 1] == n - 1))
    fewest = math.ceil(dwell_s / (telemetry.RECORD_PERIOD_MS / 1000))
    sizes = np.diff(np.r_[starts, len(rows)])
    fits_dwell = np.logical_and.reduceat((sizes >= fewest) & (sizes <= fewest + 1), scan_starts)
    kept = complete & fits_dwell
    keep = np.repeat(kept, n_groups)

    def per_step(values: np.ndarray) -> np.ndarray:
        return values[keep].reshape(-1, n)

    def summed(name: str) -> np.ndarray:
        return per_step(np.add.reduceat(rows[name].astype(np.int64), starts))

    ids = group_scan[scan_starts][kept]
    scans = ScanData(
        angles_rad=angle_from_voltage(CALIBRATION, per_step(rows["lc_signal_mv"][last]) / 1000.0),
        dwell_s=dwell_s, singles_1=summed("singles_1"), singles_2=summed("singles_2"),
        coinc_raw=summed("coinc_raw"), pair=pairs[np.searchsorted(commit_ids, ids)],
    )
    return ids.tolist(), scans, int(np.count_nonzero(complete & ~fits_dwell))


def _text_table(texts: list[str]) -> np.ndarray:
    """The ASCII codes of each text as one row, padded with zeros to the
    longest."""
    table = np.array([text.encode() for text in texts], bytes)
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII codes, a zero code where there is no character: "0000" to
    "9999", four to a uint32; the same without leading zeros, 0 blank; and
    "0.000" to "9.999" after three zeros, eight to a uint64."""
    n = np.arange(10000)[:, None]
    padded = (n // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    bare = np.where(n >= [1000, 100, 10, 1], padded, 0).astype(np.uint8)
    point = np.zeros((10000, 8), np.uint8)
    point[:, 3], point[:, 4], point[:, 5:] = padded[:, 0], ord("."), padded[:, 1:]
    return padded.view(np.uint32)[:, 0], bare.view(np.uint32)[:, 0], point.view(np.uint64)[:, 0]


def _fixed3_text(values: np.ndarray, sep: str) -> np.ndarray:
    """Each value's `"%.3f" % v` followed by `sep`, as ASCII codes along a
    new last axis, padded with zero codes: a value's text is its nonzero
    codes.

    The digits are exact. `np.frexp` gives |v| = M * 2**(e - 53), M an
    integer below 2**53, so 1000 |v| is M * 1000, which 64 bits hold,
    shifted right by 53 - e; the remainder rounds half to even, as `%`
    rounds the binary value. The sign is the sign bit, so -0.0 and a
    negative that rounds to zero read -0.000. A value that is not finite,
    or has |v| >= 2**52, where the shift is below 1, keeps `%`'s text.
    """
    values = np.asarray(values, dtype=float)
    size = np.abs(values)
    exact = size < 2.0**52  # False for nan and inf too
    # below 2**-11 a value rounds to 0.000, and its shift would pass 63
    mant, exp = np.frexp(np.where(exact & (size >= 2.0**-11), size, 0.0))
    shift = (53 - exp).astype(np.uint64)
    scaled = np.ldexp(mant, 53).astype(np.uint64) * np.uint64(1000)
    whole = scaled >> shift
    rest = scaled & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    up = (rest > half) | ((rest == half) & (whole % 2 == 1))
    tens, last = np.divmod((whole + up).astype(np.int64), 10000)

    # the units digit and the decimals, then four digits at a time to the
    # left, the leading group bare and any group above it blank
    padded, bare, point = _digit_tables()
    codes = [point.take(last)[..., None].view(np.uint8),
             np.broadcast_to(np.frombuffer(sep.encode(), np.uint8), values.shape + (len(sep),))]
    while tens.any():
        tens, group = np.divmod(tens, 10000)
        codes.insert(0, np.where(tens > 0, padded.take(group), bare.take(group))[..., None]
                     .view(np.uint8))
    codes.insert(0, np.where(np.signbit(values), ord("-"), 0).astype(np.uint8)[..., None])
    text = np.concatenate(codes, axis=-1)
    if not exact.all():
        other = _text_table(["%.3f%s" % (v, sep) for v in values[~exact].tolist()])
        wider = max(other.shape[1] - text.shape[-1], 0)
        text = np.pad(text, [(0, 0)] * values.ndim + [(0, wider)])
        text[~exact] = 0
        text[~exact, :other.shape[1]] = other
    return text


def _scans_csv_rows(ids: list[int], angles: np.ndarray, rates: list[np.ndarray]) -> bytes:
    """The rows of `scans.csv` for the scans of `ids`: per scan, one row per
    step of its id, the step, its angle and its three `rates`, each
    (scans, steps) like `angles`.

    One table holds the ASCII codes of every row, padded with zero codes,
    and the rows are its bytes without the zeros. Each id, step and
    distinct angle is formatted once with `%`, and the rates take
    `_fixed3_text`'s exact digits, so the bytes are those of
    "%d,%d,%.6f,%.3f,%.3f,%.3f\\r\\n" % row.
    """
    shape = angles.shape
    bits, where = np.unique(np.ascontiguousarray(angles).view(np.int64), return_inverse=True)
    columns = [
        _text_table(["%d," % scan_id for scan_id in ids])[:, None],
        _text_table(["%d," % step for step in range(shape[1])]),
        _text_table(["%.6f," % a for a in bits.view(float).tolist()]).take(where.reshape(shape), 0),
        *(_fixed3_text(r, sep) for r, sep in zip(rates, [",", ",", "\r\n"])),
    ]
    table = np.concatenate([np.broadcast_to(c, shape + c.shape[-1:]) for c in columns], axis=-1)
    return table.tobytes().translate(None, b"\0")


def analyze_flash(
    flash_path: str, out_dir: str, dwell_s: float = FLIGHT_SCAN.dwell_s
) -> list[dict]:
    """Run the full pipeline on a flash image file, as `scan_data_from_records`
    groups it, with `controller.FLIGHT_SCAN`'s dwell by default.

    Fits every complete scan in one `fit_sinusoids` call. Once the ring has
    wrapped (`FLAG_WRAPPED`), the scan of the oldest record left, if any,
    is partial: the wrap may have overwritten its first records, also where
    the steps left still look complete, so the grouping leaves out its id.
    Writes three CSVs, each replaced whole: `scans.csv`, every step of every
    fitted scan as one row (scan_id, step, angle, raw rate, corrected rate,
    fit curve), only its header when no scan is fitted, its digits exact:
    byte for byte what Python's `%` writes with
    "%d,%d,%.6f,%.3f,%.3f,%.3f\\r\\n", the rates' digits from
    integer arithmetic on each float's binary value; `summary.csv`
    (scan_id, pair, visibility, phase, residual); and `flash_health.csv`
    (slot counts of the read, the committed scans dropped as partial and
    those dropped for not fitting `dwell_s`). Returns the summary rows.
    """
    read = telemetry.read_records(telemetry.load_image(flash_path), as_table=True)
    table = read.rows
    cut = table["scan_id"][0] if (table["flags"] & telemetry.FLAG_WRAPPED).any() else 0
    commit_ids, pairs = _commit_pairs(table)
    kept = commit_ids != cut  # commit ids are nonzero
    ids, scans, mismatched = _group_scans(table, commit_ids[kept], pairs[kept], dwell_s)
    partial = len(commit_ids) - len(ids) - mismatched
    os.makedirs(out_dir, exist_ok=True)

    angles = scans.angles_rad
    corrected = correct_accidentals(scans)
    fits = fit_sinusoids(angles, corrected)
    curves = _model(angles, np.reshape([
        [fit.amplitude, 1.0, fit.phase_rad, fit.baseline] for fit in fits
    ], (-1, 4)))
    rates = [scans.coinc_raw / scans.dwell_s, corrected, curves]
    with open(os.path.join(out_dir, "scans.csv"), "wb") as fh:
        fh.write(b"scan_id,step,angle_rad,raw_rate_hz,corrected_rate_hz,fit_rate_hz\r\n"
                 + _scans_csv_rows(ids, angles, rates))
    scan_fits = list(zip(ids, scans.pair.tolist(), fits))
    summary_rows = [
        {"scan_id": scan_id, "pair": pair, "visibility": fit.visibility,
         "phase_rad": fit.phase_rad, "rms_residual": fit.rms_residual, "converged": fit.converged}
        for scan_id, pair, fit in scan_fits
    ]
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scan_id", "pair", *FIT_COLUMNS])
        w.writerows([scan_id, pair, *fit_columns(fit)] for scan_id, pair, fit in scan_fits)
    counts = {**asdict(read.health), "partial_scans_dropped": partial,
              "dwell_mismatch_scans_dropped": mismatched}
    with open(os.path.join(out_dir, HEALTH_CSV), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(counts)
        w.writerow(counts.values())
    return summary_rows
