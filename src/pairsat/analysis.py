"""Ground-side analysis: accidental correction and sinusoid visibility fits.

The coincidence rate versus analyzer angle is modeled as

    r(theta) = A * (1 + v * cos(2*theta - phi)) / 2 + b

and fitted by a damped Gauss-Newton iteration with an analytic Jacobian,
a batch of scans at a time (`fit_sinusoids`, used by the flight engine and
by `analyze_flash`), each row bit for bit as a fit of that row alone.
The four parameters are not independently identifiable (only the offset
A/2 + b, the amplitude A*v/2, and the phase are), so the visibility is
reported as the contrast of the fitted curve, v*A/(A + 2*b), which is
invariant along the degenerate direction. The raw fitted v is kept
alongside for diagnostics.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import physics, telemetry
from .controller import ScanConfig
from .lc_optics import LcCalibration, angle_from_voltage, default_calibration

_FLIGHT_SCAN = ScanConfig()

HEALTH_CSV = "flash_health.csv"
MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-8


@dataclass
class ScanData:
    """Per-step counts of one completed scan, keyed by analyzer angle."""

    angles_rad: np.ndarray
    dwell_s: float
    singles_1: np.ndarray
    singles_2: np.ndarray
    coinc_raw: np.ndarray
    pair: int = 0  # detector pair, 0 = 1&4, 1 = 2&3

    def __post_init__(self) -> None:
        n = len(self.angles_rad)
        if not (len(self.singles_1) == len(self.singles_2) == len(self.coinc_raw) == n):
            raise ValueError("all per-step arrays must have equal length")
        if self.dwell_s <= 0:
            raise ValueError("dwell must be positive")
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
    raw_v: float = 0.0


def visibility(max_rate: float, min_rate: float) -> float:
    """Contrast (max - min)/(max + min)."""
    if max_rate + min_rate <= 0:
        raise ValueError("max + min must be positive")
    return (max_rate - min_rate) / (max_rate + min_rate)


def correct_accidentals(scan: ScanData, window_s: float) -> np.ndarray:
    """Per-step corrected rates: raw rate minus the singles-product accidental.

    Estimator is unbiased, so negative values are preserved rather than
    clamped.
    """
    if scan.dwell_s <= 0:
        raise ValueError("dwell must be positive")
    dwell = scan.dwell_s
    raw = scan.coinc_raw / dwell
    acc = (scan.singles_1 / dwell) * (scan.singles_2 / dwell) * window_s
    return raw - acc


def _model(angles: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The curve for parameters (A, v, phi, b), or one curve per row of each."""
    amp, v, phi, base = np.asarray(p).T[..., None]
    return amp * (1.0 + v * np.cos(2.0 * angles - phi)) / 2.0 + base


def _sse(angles: np.ndarray, rates: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-row sum of squared residuals, each the `r @ r` of that row."""
    r = _model(angles, p) - rates
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _canonical(p: np.ndarray) -> np.ndarray:
    amp, v, phi, base = p
    if amp < 0:
        base += amp
        amp = -amp
        phi += math.pi
    if v < 0:
        v = -v
        phi += math.pi
    return np.array([amp, v, phi % (2.0 * math.pi), base])


def _check_fit_inputs(angles: np.ndarray, rates: np.ndarray) -> None:
    if angles.shape[-1] < 6:
        raise ValueError("need at least 6 points")
    if np.any(np.ptp(angles, axis=-1) <= math.pi):
        raise ValueError("points must span more than pi of analyzer angle")
    if angles.shape != rates.shape:
        raise ValueError("angles and rates must have equal length")
    with np.errstate(over="ignore"):  # the damping floor squares a scan's largest |rate|
        if not (np.isfinite(angles).all() and np.isfinite(np.abs(rates).max(axis=-1) ** 2).all()):
            raise ValueError("angles, rates and each scan's largest |rate| squared must be finite")


def _result_from(p: np.ndarray, angles: np.ndarray, rates: np.ndarray,
                 converged: bool) -> FitResult:
    amp, v, phi, base = _canonical(p)
    resid = _model(angles, np.array([amp, v, phi, base])) - rates
    rms = float(np.sqrt(np.mean(resid**2)))
    denom = amp + 2.0 * base
    vis = v * amp / denom if denom != 0 else 0.0
    return FitResult(
        amplitude=float(amp),
        visibility=float(vis),
        phase_rad=float(phi),
        baseline=float(base),
        rms_residual=rms,
        converged=converged,
        raw_v=float(v),
    )


def _solve(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Steps of the damped systems (k, 4, 4), in one stacked solve; a
    singular system's step is NaN, which no trial accepts."""
    try:
        return np.linalg.solve(systems, rhs)[..., 0]
    except np.linalg.LinAlgError:
        if len(systems) == 1:
            return np.full((1, 4), np.nan)
        return np.concatenate([_solve(a[None], b[None]) for a, b in zip(systems, rhs)])


def fit_sinusoids(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> list[FitResult]:
    """Damped Gauss-Newton least-squares fits of the coincidence sinusoid,
    one per row of (n, m) analyzer angles and accidental-corrected rates,
    each row at least 6 points spanning more than pi.

    Initialization is coarse: amplitude from max - min, phase from the
    discrete argmax, baseline zero. A row stops when its relative step
    drops below 1e-8, when 60 damping tries find no improving step (its
    iterate is then a numerical optimum, and converged) or after 200
    iterations. Every product, sum and solve a row sees is the one a fit
    of that row alone computes, so its result does not depend on the other
    rows. ``visibility`` is the contrast of the fitted curve and may
    exceed 1 under noise (flagged by value, not clamped).
    """
    angles = np.asarray(angles_rad, dtype=float)
    rates = np.asarray(corrected_rates, dtype=float)
    if angles.ndim != 2:
        raise ValueError("angles and rates must be (scans, points) arrays")
    _check_fit_inputs(angles, rates)

    ymax, ymin = rates.max(axis=1), rates.min(axis=1)
    # the damping floor 1e-12 * scale**2, in Python floats as a fit of one row did
    floor = 1e-12 * np.array([max(abs(hi), abs(lo)) ** 2
                              for hi, lo in zip(ymax.tolist(), ymin.tolist())])
    total = ymax + ymin
    v0 = np.divide(ymax - ymin, np.abs(total), out=np.ones_like(total), where=total != 0)
    peak = angles[np.arange(len(angles)), np.argmax(rates, axis=1)]
    p = np.stack([ymax - ymin, v0, (2.0 * peak) % (2.0 * math.pi), np.zeros_like(v0)], axis=1)
    flat = ymax == ymin
    best = _sse(angles, rates, p)
    lam = np.full(len(angles), 1e-3)
    converged = flat.copy()
    diagonal = np.arange(4)
    for _ in range(MAX_ITERATIONS):
        rows = np.flatnonzero(~converged)
        if len(rows) == 0:
            break
        a, y = angles[rows], rates[rows]
        amp, v, phi, base = p[rows].T[..., None]
        c = np.cos(2.0 * a - phi)
        s = np.sin(2.0 * a - phi)
        resid = amp * (1.0 + v * c) / 2.0 + base - y
        jac = np.stack([(1.0 + v * c) / 2.0, amp * c / 2.0, amp * v * s / 2.0,
                        np.ones_like(a)], axis=-1)
        jac_t = jac.transpose(0, 2, 1)
        jtj = jac_t @ jac
        neg_grad = -(jac_t @ resid[..., None])
        damp = np.zeros_like(jtj)
        damp[:, diagonal, diagonal] = np.maximum(jtj[:, diagonal, diagonal], floor[rows, None])
        pending = np.ones(len(rows), bool)  # per row of `rows`: no step accepted yet
        for _try in range(60):
            t = np.flatnonzero(pending)
            if len(t) == 0:
                break
            r = rows[t]
            step = _solve(jtj[t] + lam[r, None, None] * damp[t], neg_grad[t])
            trial = _sse(angles[r], rates[r], p[r] + step)
            better = trial < best[r]
            lam[r[~better]] *= 10.0
            t, r, step = t[better], r[better], step[better]
            rel = np.max(np.abs(step) / (np.abs(p[r]) + 1e-12), axis=1)
            p[r] = p[r] + step
            best[r] = trial[better]
            lam[r] = np.maximum(lam[r] * 0.3, 1e-12)
            pending[t] = False
            converged[r[rel < STEP_TOLERANCE]] = True
        converged[rows[pending]] = True  # no improving direction left at this precision
    return [
        FitResult(0.0, 0.0, 0.0, float(ymax[i]), 0.0, True, 0.0) if flat[i]
        else _result_from(p[i], angles[i], rates[i], bool(converged[i]))
        for i in range(len(angles))
    ]


def fit_sinusoid(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> FitResult:
    """Fit one scan's angles and corrected rates: a one-row `fit_sinusoids`."""
    return fit_sinusoids(np.asarray(angles_rad, dtype=float)[None],
                         np.asarray(corrected_rates, dtype=float)[None])[0]


def fit_oracle(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> FitResult:
    """Exhaustive lattice search over (A, v, phi, b), refined once.

    Test-only reference implementation: slower and coarser than the
    iterative fit, but with no convergence assumptions to trust.
    """
    angles = np.asarray(angles_rad, dtype=float)
    rates = np.asarray(corrected_rates, dtype=float)
    _check_fit_inputs(angles, rates)

    ymax, ymin = float(rates.max()), float(rates.min())
    if ymax == ymin:
        return FitResult(0.0, 0.0, 0.0, ymax, 0.0, True, 0.0)
    spread = ymax - ymin

    grids = {
        "amp": np.linspace(0.25 * spread, 3.0 * spread, 10),
        "v": np.linspace(0.0, 1.2, 13),
        "phi": np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False),
        "base": np.linspace(ymin - 0.5 * spread, ymax, 9),
    }
    best_p = None
    best_sse = math.inf
    for _pass in range(2):
        mesh = np.meshgrid(*grids.values(), indexing="ij")
        params = np.stack([m.ravel() for m in mesh], axis=1)
        curves = (
            params[:, 0:1] * (1.0 + params[:, 1:2] * np.cos(2.0 * angles[None, :] - params[:, 2:3])) / 2.0
            + params[:, 3:4]
        )
        sse = ((curves - rates[None, :]) ** 2).sum(axis=1)
        i = int(np.argmin(sse))
        best_p = params[i]
        best_sse = float(sse[i])
        refined = {}
        for j, (name, grid) in enumerate(grids.items()):
            spacing = grid[1] - grid[0]
            refined[name] = np.linspace(best_p[j] - spacing, best_p[j] + spacing, len(grid))
        grids = refined
    return _result_from(np.array(best_p), angles, rates, True)


def _commit_pairs(table: np.ndarray) -> dict[int, int]:
    """Nonzero scan id carrying a commit marker -> pair_sel of its last
    commit record, ascending by id."""
    commits = table[((table["flags"] & telemetry.FLAG_SCAN_COMMIT) != 0)
                    & (table["scan_id"] != 0)][::-1]
    ids, last = np.unique(commits["scan_id"], return_index=True)
    return dict(zip(ids.tolist(), commits["pair_sel"][last].tolist()))


def scan_data_from_records(
    table: np.ndarray,
    calibration: LcCalibration,
    dwell_s: float = _FLIGHT_SCAN.dwell_s,
) -> tuple[dict[int, ScanData], int]:
    """Group flash records into per-scan step data.

    `table` is a `telemetry.RECORD_DTYPE` table, as the `rows` of
    `telemetry.read_records(flash, as_table=True)`; a dwell that is not
    finite and positive raises ValueError naming it. Only complete scans
    are returned: a scan with a commit marker whose counting records cover
    exactly the steps 0..n_steps-1 of the flight `ScanConfig`. Records of
    aborted scans stay in the flash but are dropped here, and so are
    partial scans, such as a committed scan whose first steps the ring wrap
    overwrote. A dwell of d counts over
    ceil(d / 0.125 s) record periods, or one more; a complete scan with a
    step of any other number of counting records is dropped and counted.
    Counts for a step are the sum over its record periods (settle periods
    contribute zero), the analyzer angle is recomputed from the drive
    voltage of the step's last record, in the order given, through the
    same calibration the flight code used, and the pair is that of the
    scan's last commit record. Returns the scans by id, ascending, and the
    number dropped for the dwell.
    """
    if not 0 < dwell_s < math.inf:
        raise ValueError(f"dwell must be finite and positive, got {dwell_s} s")
    pairs = _commit_pairs(table)
    rows = table[np.isin(table["scan_id"], list(pairs))
                 & ((table["flags"] & telemetry.FLAG_COUNTING) != 0)]
    if len(rows) == 0:
        return {}, 0
    rows = rows[np.lexsort((rows["step"], rows["scan_id"]))]  # stable: order kept per step
    scan_id, step = rows["scan_id"], rows["step"]
    starts = np.flatnonzero(np.r_[True, (scan_id[1:] != scan_id[:-1]) | (step[1:] != step[:-1])])
    last = np.r_[starts[1:], len(rows)] - 1

    # Per (scan, step) group; a scan is complete when its groups are n_steps
    # distinct steps running from 0 to n_steps - 1.
    n = _FLIGHT_SCAN.n_steps
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

    angles = angle_from_voltage(calibration, per_step(rows["lc_signal_mv"][last]) / 1000.0)
    scans = {
        sid: ScanData(angles_rad=a, dwell_s=dwell_s, singles_1=s1, singles_2=s2,
                      coinc_raw=c, pair=pairs[sid])
        for sid, a, s1, s2, c in zip(
            group_scan[scan_starts][kept].tolist(), angles,
            summed("singles_1"), summed("singles_2"), summed("coinc_raw"),
        )
    }
    return scans, int(np.count_nonzero(complete & ~fits_dwell))


def analyze_flash(
    flash_path: str,
    out_dir: str,
    calibration: LcCalibration | None = None,
    dwell_s: float = _FLIGHT_SCAN.dwell_s,
    window_s: float = physics.COINCIDENCE_WINDOW_S,
) -> list[dict]:
    """Run the full pipeline on a flash image file.

    Fits every complete scan in one `fit_sinusoids` call. Once the ring has
    wrapped (`FLAG_WRAPPED`), the scan of the oldest record left, if any,
    is partial: the wrap may have overwritten its first records, also where
    the steps left still look complete. Writes one CSV per scan (angle, raw
    rate, corrected rate, fit curve), a summary CSV (scan_id, pair,
    visibility, phase, residual) and a flash-health CSV (slot counts of the
    read, the committed scans dropped as partial and those dropped for not
    fitting `dwell_s`); returns the summary rows.
    """
    cal = calibration or default_calibration()
    read = telemetry.read_records(telemetry.load_image(flash_path), as_table=True)
    table = read.rows
    grouped = table
    if len(table) and table["scan_id"][0] and (table["flags"] & telemetry.FLAG_WRAPPED).any():
        grouped = table[table["scan_id"] != table["scan_id"][0]]
    scans, mismatched = scan_data_from_records(grouped, cal, dwell_s)
    partial = len(_commit_pairs(table)) - len(scans) - mismatched
    os.makedirs(out_dir, exist_ok=True)

    summary_rows = []
    if scans:
        angles = np.stack([scan.angles_rad for scan in scans.values()])
        corrected = np.stack([correct_accidentals(scan, window_s) for scan in scans.values()])
        fits = fit_sinusoids(angles, corrected)
        curves = _model(angles, np.array([
            [fit.amplitude, fit.raw_v, fit.phase_rad, fit.baseline] for fit in fits
        ]))
    for i, (scan_id, scan) in enumerate(scans.items()):
        fit = fits[i]
        with open(os.path.join(out_dir, f"scan_{scan_id:05d}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["angle_rad", "raw_rate_hz", "corrected_rate_hz", "fit_rate_hz"])
            raw = scan.coinc_raw / scan.dwell_s
            for j in range(len(scan.angles_rad)):
                w.writerow([
                    f"{scan.angles_rad[j]:.6f}", f"{raw[j]:.3f}",
                    f"{corrected[i, j]:.3f}", f"{curves[i, j]:.3f}",
                ])
        summary_rows.append({
            "scan_id": scan_id,
            "pair": scan.pair,
            "visibility": fit.visibility,
            "phase_rad": fit.phase_rad,
            "rms_residual": fit.rms_residual,
            "converged": fit.converged,
        })
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scan_id", "pair", "visibility", "phase_rad", "rms_residual", "converged"])
        for row in summary_rows:
            w.writerow([
                row["scan_id"], row["pair"], f"{row['visibility']:.6f}",
                f"{row['phase_rad']:.6f}", f"{row['rms_residual']:.3f}",
                int(row["converged"]),
            ])
    counts = {**asdict(read.health), "partial_scans_dropped": partial,
              "dwell_mismatch_scans_dropped": mismatched}
    with open(os.path.join(out_dir, HEALTH_CSV), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(counts)
        w.writerow(counts.values())
    return summary_rows
