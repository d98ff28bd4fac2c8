"""Liquid-crystal polarization rotator model.

A drive voltage maps to a rotation angle through a nonlinear but strictly
monotone calibration curve; the device needs a fixed settling time after
every voltage step before counts may be trusted. The analyzer behind it has
finite extinction, which leaks a little of the orthogonal polarization.

The curve is a monotone piecewise cubic (`MonotoneCubic`, PCHIP) in numpy
and the standard library; the balloon profile's package temperature uses
the same class.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
SETTLE_TIME_MS = 300
# the analyzer's extinction ratio: it passes the orthogonal polarization at
# 1 / (1 + EXTINCTION_RATIO)
EXTINCTION_RATIO = 2000.0
# bracket width at which `voltage_for_angle` stops bisecting, volts
INVERSE_TOLERANCE_V = 1e-12


class MonotoneCubic:
    """Monotone piecewise-cubic (PCHIP) interpolant through knots (x, y).

    The knot slopes are Fritsch-Butland's weighted harmonic mean of the
    neighbouring secant slopes, or 0 where those differ in sign or either
    is 0; the end slopes are Moler's one-sided three-point estimate, kept
    to the shape of the data. Two knots give the line through them. Every
    step, and the order of every float operation in the construction and
    in the evaluation, is that of scipy's `PchipInterpolator` (scipy 1.17),
    so both give the same bits; the tests hold it to that reference.

    Called with an ndarray it evaluates element-wise in numpy; with a
    float it evaluates in Python floats, with no numpy call. Outside the
    knots it extends the end pieces.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("need two equal-length 1-D knot arrays of at least 2 knots")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("knots must be finite")
        h = np.diff(x)
        if not (h > 0).all():
            raise ValueError("knot x must be strictly increasing")
        m = np.diff(y) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            # 1 / the weighted harmonic mean; infinite or nan only where flat
            with np.errstate(divide="ignore", invalid="ignore"):
                inverse = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / inverse)
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._set(x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def _set(self, x: np.ndarray, c: np.ndarray) -> None:
        """Take the knots and the per-piece coefficients, highest power first."""
        self._x = x
        self._c = c
        self._x_list = x.tolist()
        # constant term first, in the order the evaluation adds the terms
        self._c_lists = c[::-1].tolist()

    def derivative(self) -> MonotoneCubic:
        """The first derivative, a piecewise quadratic on the same knots."""
        deriv = MonotoneCubic.__new__(MonotoneCubic)
        powers = np.arange(len(self._c) - 1, 0, -1, dtype=np.float64)
        deriv._set(self._x, self._c[:-1] * powers[:, None])
        return deriv

    def __call__(self, v):
        # the piece holding v, [x_i, x_i+1) but the last closed, the end
        # pieces extended; the sum runs 0.0 + c0 + c1*s + c2*(s*s) + ...
        if isinstance(v, np.ndarray):
            i = np.clip(np.searchsorted(self._x, v, side="right") - 1, 0, len(self._x) - 2)
            s = v - self._x[i]
            rows = self._c[::-1]
        else:
            xs = self._x_list
            i = min(max(bisect_right(xs, v) - 1, 0), len(xs) - 2)
            s = v - xs[i]
            rows = self._c_lists
        total = 0.0
        power = 1.0
        for row in rows:
            total = total + row[i] * power
            power = power * s
        return total


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's one-sided three-point end slope, kept to the data's shape:
    0 where it opposes the end secant `m0`, and at most 3*m0 where the
    secants change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class LcCalibration:
    """Monotone voltage -> rotation-angle curve through fixed knots.

    Knots span [V_min, V_max] onto [0, 2*pi]; interpolation is monotone
    piecewise-cubic (`MonotoneCubic`), so no overshoot between knots.
    """

    def __init__(self, knots: list[tuple[float, float]]):
        if len(knots) < 2:
            raise ValueError("need at least 2 calibration knots")
        volts = [v for v, _ in knots]
        angles = [a for _, a in knots]
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise ValueError("knot voltages must be strictly increasing")
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValueError("knot angles must be strictly increasing")
        if abs(angles[0]) > 1e-12 or abs(angles[-1] - TWO_PI) > 1e-12:
            raise ValueError("knot angles must run from 0 to 2*pi")
        self.knots = [(float(v), float(a)) for v, a in knots]
        self.v_min = float(volts[0])
        self.v_max = float(volts[-1])
        self._interp = MonotoneCubic(volts, angles)


def default_calibration() -> LcCalibration:
    """8-knot sigmoid-like curve over 0..8 V, steepest near mid-range."""
    volts = [0.0, 1.1, 2.3, 3.4, 4.4, 5.5, 6.8, 8.0]

    def s(v: float) -> float:
        return 1.0 / (1.0 + math.exp(-(v - 4.0) / 1.6))

    lo, hi = s(volts[0]), s(volts[-1])
    angles = [TWO_PI * (s(v) - lo) / (hi - lo) for v in volts]
    angles[0] = 0.0
    angles[-1] = TWO_PI
    return LcCalibration(list(zip(volts, angles)))


# the flight LC curve, which the payload and the ground analysis share
CALIBRATION = default_calibration()


def angle_from_voltage(cal: LcCalibration, v: float | np.ndarray) -> float | np.ndarray:
    """Analyzer angle for drive voltage `v`, clipped to [0, 2π].

    An array of voltages gives the array of angles from one lookup, equal
    element for element to the scalar lookups.
    """
    if isinstance(v, np.ndarray):
        outside = ~((cal.v_min <= v) & (v <= cal.v_max))
        if outside.any():
            raise ValueError(f"voltage {v[outside][0]} outside [{cal.v_min}, {cal.v_max}]")
        return np.clip(cal._interp(v), 0.0, TWO_PI)
    if not cal.v_min <= v <= cal.v_max:
        raise ValueError(f"voltage {v} outside [{cal.v_min}, {cal.v_max}]")
    return float(min(TWO_PI, max(0.0, cal._interp(v))))


def voltage_for_angle(cal: LcCalibration, theta: float) -> float:
    """Inverse calibration lookup: bisection of the monotone curve to
    `INVERSE_TOLERANCE_V`, or to adjacent floats where those lie wider
    apart (above about 4.5 kV)."""
    if not 0.0 <= theta <= TWO_PI:
        raise ValueError(f"angle {theta} outside [0, 2*pi]")
    if theta <= 0.0:
        return cal.v_min
    if theta >= TWO_PI:
        return cal.v_max
    curve = cal._interp
    lo, hi = cal.v_min, cal.v_max
    while hi - lo > INVERSE_TOLERANCE_V:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if curve(mid) < theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LcState:
    """The LC pair: the commanded signal and idler drive voltages, in the
    integer millivolts the scan table and the records use, and the settle
    time left, in ms; settled at 0. Both LCs are always written together,
    so one timer serves the pair."""

    signal_mv: int = 0
    idler_mv: int = 0
    settle_remaining_ms: int = 0

    def __post_init__(self) -> None:
        if self.settle_remaining_ms < 0:
            raise ValueError("settle_remaining_ms must be nonnegative")

    @property
    def settled(self) -> bool:
        return self.settle_remaining_ms == 0


def command_voltage(signal_mv: int, idler_mv: int) -> LcState:
    """Command both drive voltages, in mV.

    Every command restarts the settle timer, including a re-command of the
    current voltages: the drive transient is assumed whenever the output
    stage is written, so counts gated on the settled flag always sit a full
    settle interval after the write.
    """
    return LcState(signal_mv, idler_mv, SETTLE_TIME_MS)


def step_settle(state: LcState, dt_ms: int) -> LcState:
    if dt_ms <= 0:
        raise ValueError("dt_ms must be positive")
    if state.settled:
        return state
    return LcState(state.signal_mv, state.idler_mv, max(0, state.settle_remaining_ms - dt_ms))


def polarization_mixing(rate_parallel: float, rate_orthogonal: float,
                        extinction_ratio: float) -> float:
    """Measured rate behind an imperfect analyzer.

    The analyzer passes the co-polarized rate with weight (1 - eps) and
    leaks the orthogonal one with weight eps, so a sinusoidal input keeps
    its mean and has its contrast multiplied by (1 - 2*eps).
    """
    if extinction_ratio < 1:
        raise ValueError("extinction_ratio must be >= 1")
    eps = 1.0 / (1.0 + extinction_ratio)
    return (1.0 - eps) * rate_parallel + eps * rate_orthogonal
