"""Liquid-crystal polarization rotator model.

A drive voltage maps to a rotation angle through a nonlinear but strictly
monotone calibration curve; the device needs a fixed settling time after
every voltage step before counts may be trusted. The analyzer behind it has
finite extinction, which leaks a little of the orthogonal polarization.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi
SETTLE_TIME_S = 0.3


class LcCalibration:
    """Monotone voltage -> rotation-angle curve through fixed knots.

    Knots span [V_min, V_max] onto [0, 2*pi]; interpolation is monotone
    piecewise-cubic, so no overshoot between knots.
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
        self._interp = PchipInterpolator(volts, angles)

    def __repr__(self) -> str:
        return f"LcCalibration({len(self.knots)} knots, {self.v_min}..{self.v_max} V)"


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
    """Inverse calibration lookup by root bracketing."""
    if not 0.0 <= theta <= TWO_PI:
        raise ValueError(f"angle {theta} outside [0, 2*pi]")
    if theta <= 0.0:
        return cal.v_min
    if theta >= TWO_PI:
        return cal.v_max
    return float(
        brentq(lambda v: cal._interp(v) - theta, cal.v_min, cal.v_max, xtol=1e-12)
    )


@dataclass(frozen=True)
class LcState:
    commanded_voltage: float = 0.0
    settled: bool = True
    settle_remaining_s: float = 0.0

    def __post_init__(self) -> None:
        if self.settle_remaining_s < 0:
            raise ValueError("settle_remaining_s must be nonnegative")
        if self.settled != (self.settle_remaining_s == 0.0):
            raise ValueError("settled flag must mirror settle_remaining_s == 0")


def command_voltage(state: LcState, v: float) -> LcState:
    """Command a drive voltage.

    Every command restarts the settle timer, including a re-command of the
    current voltage: the drive transient is assumed whenever the output
    stage is written, so counts gated on the settled flag always sit a full
    settle interval after the write.
    """
    return LcState(commanded_voltage=v, settled=False, settle_remaining_s=SETTLE_TIME_S)


def step_settle(state: LcState, dt: float) -> LcState:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.settled:
        return state
    remaining = state.settle_remaining_s - dt
    if remaining < 1e-12:  # absorb float residue so 6 x 0.05 closes 0.3 exactly
        remaining = 0.0
    return replace(state, settled=remaining == 0.0, settle_remaining_s=remaining)


def analyzer_transmission(theta_rel: float, extinction_ratio: float) -> float:
    """Malus transmission with a leakage floor set by the extinction ratio."""
    if extinction_ratio < 1:
        raise ValueError("extinction_ratio must be >= 1")
    eps = 1.0 / (1.0 + extinction_ratio)
    return (1.0 - eps) * math.cos(theta_rel) ** 2 + eps


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


def load_calibration_csv(path: str) -> LcCalibration:
    """Load knots from CSV rows of voltage,angle_rad (header optional)."""
    knots: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                knots.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if i == 1:  # tolerate a header line
                    continue
                raise ValueError(f"bad calibration row at line {i}: {row!r}") from None
    return LcCalibration(knots)
