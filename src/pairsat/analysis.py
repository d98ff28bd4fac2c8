"""Ground-side analysis: accidental correction and sinusoid visibility fits.

The coincidence rate versus analyzer angle is modeled as

    r(theta) = A * (1 + v * cos(2*theta - phi)) / 2 + b

and fitted by a damped Gauss-Newton iteration with an analytic Jacobian.
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
from .lc_optics import LcCalibration, angle_from_voltage
# Imported after lc_optics so that the package loads its modules in the
# order it did before analysis needed ScanConfig (set-up time; CHANGES.md).
from .controller import ScanConfig

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
    amp, v, phi, base = p
    return amp * (1.0 + v * np.cos(2.0 * angles - phi)) / 2.0 + base


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
    if len(angles) < 6:
        raise ValueError("need at least 6 points")
    if np.ptp(angles) <= math.pi:
        raise ValueError("points must span more than pi of analyzer angle")
    if len(angles) != len(rates):
        raise ValueError("angles and rates must have equal length")


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


def fit_sinusoid(angles_rad: np.ndarray, corrected_rates: np.ndarray) -> FitResult:
    """Damped Gauss-Newton least-squares fit of the coincidence sinusoid.

    Initialization is coarse: amplitude from max - min, phase from the
    discrete argmax (which selects the right of the two phase minima),
    baseline zero. Iteration stops when the relative parameter step drops
    below 1e-8 or after 200 iterations; if damping can no longer find any
    improving step the current iterate is already a numerical optimum and
    counts as converged.

    Parameters
    ----------
    angles_rad : ndarray
        Analyzer angles, at least 6 points spanning more than pi.
    corrected_rates : ndarray
        Accidental-corrected coincidence rates per step.

    Returns
    -------
    FitResult
        Curve parameters; ``visibility`` is the contrast of the fitted
        curve and may exceed 1 under noise (flagged by value, not clamped).
    """
    angles = np.asarray(angles_rad, dtype=float)
    rates = np.asarray(corrected_rates, dtype=float)
    _check_fit_inputs(angles, rates)

    ymax, ymin = float(rates.max()), float(rates.min())
    if ymax == ymin:
        return FitResult(0.0, 0.0, 0.0, ymax, 0.0, True, 0.0)

    scale = max(abs(ymax), abs(ymin))
    total = ymax + ymin
    p = np.array([
        ymax - ymin,
        (ymax - ymin) / abs(total) if total != 0 else 1.0,
        (2.0 * angles[int(np.argmax(rates))]) % (2.0 * math.pi),
        0.0,
    ])

    def sse(q: np.ndarray) -> float:
        r = _model(angles, q) - rates
        return float(r @ r)

    best = sse(p)
    lam = 1e-3
    converged = False
    for _ in range(MAX_ITERATIONS):
        amp, v, phi, base = p
        c = np.cos(2.0 * angles - phi)
        s = np.sin(2.0 * angles - phi)
        resid = amp * (1.0 + v * c) / 2.0 + base - rates
        jac = np.column_stack([
            (1.0 + v * c) / 2.0,
            amp * c / 2.0,
            amp * v * s / 2.0,
            np.ones_like(angles),
        ])
        jtj = jac.T @ jac
        grad = jac.T @ resid
        accepted = False
        for _try in range(60):
            damp = np.diag(np.maximum(np.diag(jtj), 1e-12 * scale**2))
            try:
                step = np.linalg.solve(jtj + lam * damp, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = sse(p + step)
            if trial < best:
                rel = float(np.max(np.abs(step) / (np.abs(p) + 1e-12)))
                p = p + step
                best = trial
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if rel < STEP_TOLERANCE:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            converged = True  # no improving direction left at this precision
            break
        if converged:
            break
    return _result_from(p, angles, rates, converged)


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


def _committed_ids(table: np.ndarray) -> np.ndarray:
    """Nonzero scan ids that carry a commit marker, ascending."""
    ids = table["scan_id"][(table["flags"] & telemetry.FLAG_SCAN_COMMIT) != 0]
    return np.unique(ids[ids != 0])


def _last_pairs(table: np.ndarray) -> dict[int, int]:
    """scan_id -> pair_sel of the scan's last counting record."""
    counting = table[(table["flags"] & telemetry.FLAG_COUNTING) != 0][::-1]
    ids, last = np.unique(counting["scan_id"], return_index=True)
    return dict(zip(ids.tolist(), counting["pair_sel"][last].tolist()))


def scan_data_from_records(
    records: np.ndarray | list[telemetry.TelemetryRecord],
    calibration: LcCalibration,
    dwell_s: float = _FLIGHT_SCAN.dwell_s,
) -> dict[int, ScanData]:
    """Group flash records into per-scan step data.

    `records` is a `telemetry.RECORD_DTYPE` table, as the `rows` of
    `telemetry.read_records(flash, as_table=True)`, or a list of records.
    Only complete scans are returned: a scan with a commit marker whose
    counting records cover exactly the steps 0..n_steps-1 of the flight
    `ScanConfig`. Records of aborted scans stay in the flash but are
    dropped here, and so are partial scans, such as a committed scan whose
    first steps the ring wrap overwrote. Counts for a step are the sum over
    its record periods (settle periods contribute zero), and the analyzer
    angle is recomputed from the drive voltage of the step's last record,
    in the order given, through the same calibration the flight code used.
    """
    table = records if isinstance(records, np.ndarray) else telemetry.table_from_records(records)
    rows = table[np.isin(table["scan_id"], _committed_ids(table))
                 & ((table["flags"] & telemetry.FLAG_COUNTING) != 0)]
    if len(rows) == 0:
        return {}
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
    keep = np.repeat(complete, n_groups)

    def per_step(values: np.ndarray) -> np.ndarray:
        return values[keep].reshape(-1, n)

    def summed(name: str) -> np.ndarray:
        return per_step(np.add.reduceat(rows[name].astype(np.int64), starts))

    angles = angle_from_voltage(calibration, per_step(rows["lc_signal_mv"][last]) / 1000.0)
    return {
        sid: ScanData(angles_rad=a, dwell_s=dwell_s, singles_1=s1, singles_2=s2, coinc_raw=c)
        for sid, a, s1, s2, c in zip(
            group_scan[scan_starts][complete].tolist(), angles,
            summed("singles_1"), summed("singles_2"), summed("coinc_raw"),
        )
    }


def analyze_flash(
    flash_path: str,
    out_dir: str,
    calibration: LcCalibration | None = None,
    dwell_s: float = _FLIGHT_SCAN.dwell_s,
    window_s: float = physics.COINCIDENCE_WINDOW_S,
) -> list[dict]:
    """Run the full pipeline on a flash image file.

    Writes one CSV per scan (angle, raw rate, corrected rate, fit curve),
    a summary CSV (scan_id, visibility, phase, residual) and a flash-health
    CSV (slot counts of the read, and the committed scans dropped as
    partial); returns the summary rows.
    """
    from .lc_optics import default_calibration

    cal = calibration or default_calibration()
    read = telemetry.read_records(telemetry.load_image(flash_path), as_table=True)
    table = read.rows
    scans = scan_data_from_records(table, cal, dwell_s)
    partial = len(_committed_ids(table)) - len(scans)
    pair_of = _last_pairs(table)
    os.makedirs(out_dir, exist_ok=True)

    summary_rows = []
    for scan_id, scan in scans.items():
        corrected = correct_accidentals(scan, window_s)
        fit = fit_sinusoid(scan.angles_rad, corrected)
        curve = _model(scan.angles_rad, np.array([
            fit.amplitude, fit.raw_v, fit.phase_rad, fit.baseline
        ]))
        with open(os.path.join(out_dir, f"scan_{scan_id:05d}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["angle_rad", "raw_rate_hz", "corrected_rate_hz", "fit_rate_hz"])
            raw = scan.coinc_raw / scan.dwell_s
            for i in range(len(scan.angles_rad)):
                w.writerow([
                    f"{scan.angles_rad[i]:.6f}", f"{raw[i]:.3f}",
                    f"{corrected[i]:.3f}", f"{curve[i]:.3f}",
                ])
        summary_rows.append({
            "scan_id": scan_id,
            "pair": pair_of.get(scan_id, 0),
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
    counts = {**asdict(read.health), "partial_scans_dropped": partial}
    with open(os.path.join(out_dir, HEALTH_CSV), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(counts)
        w.writerow(counts.values())
    return summary_rows
