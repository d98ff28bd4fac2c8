"""Calibration curve, settling state machine, and analyzer leakage."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsat.lc_optics import (
    SETTLE_TIME_MS,
    TWO_PI,
    LcCalibration,
    LcState,
    MonotoneCubic,
    angle_from_voltage,
    command_voltage,
    default_calibration,
    polarization_mixing,
    step_settle,
    voltage_for_angle,
)


def test_default_calibration_endpoints():
    cal = default_calibration()
    assert angle_from_voltage(cal, cal.v_min) == 0.0
    assert angle_from_voltage(cal, cal.v_max) == pytest.approx(TWO_PI, abs=1e-12)


def test_calibration_strictly_monotone():
    cal = default_calibration()
    volts = np.linspace(cal.v_min, cal.v_max, 500)
    angles = [angle_from_voltage(cal, v) for v in volts]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_angle_out_of_range_rejected():
    cal = default_calibration()
    with pytest.raises(ValueError):
        angle_from_voltage(cal, cal.v_min - 0.1)
    with pytest.raises(ValueError):
        angle_from_voltage(cal, cal.v_max + 0.1)
    with pytest.raises(ValueError):
        voltage_for_angle(cal, -0.1)
    with pytest.raises(ValueError):
        voltage_for_angle(cal, TWO_PI + 0.1)


def test_linear_two_knot_midpoint():
    cal = LcCalibration([(0.0, 0.0), (10.0, TWO_PI)])
    assert angle_from_voltage(cal, 5.0) == pytest.approx(math.pi, abs=1e-9)
    assert voltage_for_angle(cal, math.pi) == pytest.approx(5.0, abs=1e-9)
    # adjacent floats lie more than the bisection tolerance apart up here
    wide = LcCalibration([(0.0, 0.0), (1e5, TWO_PI)])
    assert voltage_for_angle(wide, math.pi) == pytest.approx(5e4, rel=1e-12)


def test_inverse_round_trip_dense_grid():
    cal = default_calibration()
    for theta in np.linspace(0.0, TWO_PI, 200):
        v = voltage_for_angle(cal, theta)
        assert abs(angle_from_voltage(cal, v) - theta) < 1e-6
    for v_knot, a_knot in cal.knots:
        assert voltage_for_angle(cal, a_knot) == pytest.approx(v_knot, abs=1e-9)


def test_calibration_validation():
    with pytest.raises(ValueError):
        LcCalibration([(0.0, 0.0)])
    with pytest.raises(ValueError):
        LcCalibration([(0.0, 0.0), (0.0, TWO_PI)])  # duplicate voltage
    with pytest.raises(ValueError):
        LcCalibration([(0.0, 0.0), (5.0, 3.0), (10.0, 2.0)])  # angle dips
    with pytest.raises(ValueError):
        LcCalibration([(0.0, 0.1), (10.0, TWO_PI)])  # does not start at zero


def test_settle_countdown():
    st = command_voltage(3000, 2555)
    assert not st.settled
    assert st == LcState(3000, 2555, SETTLE_TIME_MS)
    st = step_settle(st, 100)
    assert st.settle_remaining_ms == 200
    assert not st.settled
    st = step_settle(st, 250)  # an overshoot closes at 0
    assert st.settled and st.settle_remaining_ms == 0
    # absorbing once settled
    assert step_settle(st, 1000) == st


def test_settle_closes_exactly_on_tick_grid():
    st = command_voltage(5000, 0)
    for i in range(6):
        st = step_settle(st, 50)
        assert st == LcState(5000, 0, SETTLE_TIME_MS - 50 * (i + 1))
        assert st.settled == (i == 5)
    assert st == LcState(5000, 0, 0)


def test_recommand_restarts_timer():
    st = command_voltage(3000, 0)
    for _ in range(6):
        st = step_settle(st, 50)
    assert st.settled
    # the same voltages written again still force a fresh settle interval
    st = command_voltage(3000, 0)
    assert not st.settled
    assert st.settle_remaining_ms == SETTLE_TIME_MS


def test_state_invariant_enforced():
    # a negative remaining time raises
    with pytest.raises(ValueError):
        LcState(signal_mv=1000, idler_mv=0, settle_remaining_ms=-50)
    with pytest.raises(ValueError):
        step_settle(LcState(1000, 0, 50), 0)


def test_polarization_mixing_compresses_contrast():
    ratio = 100.0
    eps = 1.0 / (1.0 + ratio)
    hi, lo = 1000.0, 100.0
    mixed_hi = polarization_mixing(hi, lo, ratio)
    mixed_lo = polarization_mixing(lo, hi, ratio)
    raw_contrast = (hi - lo) / (hi + lo)
    mixed_contrast = (mixed_hi - mixed_lo) / (mixed_hi + mixed_lo)
    assert mixed_contrast == pytest.approx(raw_contrast * (1.0 - 2.0 * eps), rel=1e-12)


def test_vector_lookup_is_bit_identical_on_every_millivolt():
    # flash stores the drive in whole millivolts: check every value in range
    cal = default_calibration()
    volts = np.arange(round(cal.v_min * 1000), round(cal.v_max * 1000) + 1) / 1000.0
    vector = angle_from_voltage(cal, volts)
    scalar = np.array([angle_from_voltage(cal, v) for v in volts])
    assert np.array_equal(vector.view(np.uint64), scalar.view(np.uint64))
    for bad in (cal.v_min - 0.001, cal.v_max + 0.001, float("nan")):
        with pytest.raises(ValueError):
            angle_from_voltage(cal, np.array([4.0, bad]))


# Knots on small integer grids, scaled: equal neighbours give zero secants,
# and up-down runs give sign changes and both end-slope clamps.
KNOTS = st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1),
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    st.sampled_from([1e-3, 0.37, 1.0, 150.0]),
    st.sampled_from([1e-2, 1.0, 6.5]),
    st.floats(-1e4, 1e4, allow_nan=False),
))


def _knots_and_points(widths, levels, x_scale, y_scale, x0):
    x = x0 + np.cumsum([0.0] + [w * x_scale for w in widths])
    y = np.array(levels, dtype=np.float64) * y_scale
    # every knot, both ends, the midpoints, quarter points and one
    # interval's width beyond each end
    mids = (x[1:] + x[:-1]) / 2
    quarters = x[:-1] + (x[1:] - x[:-1]) / 4
    span = x[-1] - x[0]
    points = np.concatenate([x, mids, quarters, [x[0] - span / 3, x[-1] + span / 3]])
    return x, y, points


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(KNOTS)
@example(([4], [0, 1], 1.0, 1.0, 0.0))  # two knots: the line
@example(([4, 6, 3, 5], [2, 2, 3, 3, 1], 1.0, 1.0, 0.0))  # zero secants and a sign change
@example(([1, 1], [0, 1, 5], 1.0, 1.0, 0.0))  # first end slope opposes its secant: 0
@example(([1, 1], [0, 1, -3], 1.0, 1.0, 0.0))  # secants change sign, end slope > 3 m0
@example(([1, 1], [5, 1, 0], 1.0, 1.0, 0.0))  # the same two clamps at the last end
@example(([1, 1], [4, 0, 1], 1.0, 1.0, 0.0))
def test_monotone_cubic_bit_identical_to_scipy_pchip(knots):
    from scipy.interpolate import PchipInterpolator

    x, y, points = _knots_and_points(*knots)
    ours, ref = MonotoneCubic(x, y), PchipInterpolator(x, y)
    for curve, reference in ((ours, ref), (ours.derivative(), ref.derivative())):
        expected = _hex(reference(points))
        assert _hex(curve(points)) == expected  # array path
        assert _hex(curve(float(p)) for p in points) == expected  # scalar path
        assert all(type(curve(float(p))) is float for p in points)


def test_balloon_package_knots_bit_identical_to_scipy_pchip():
    # the balloon profile's curve and slope: a 12 -> 12 C flat, real times
    from scipy.interpolate import PchipInterpolator

    from pairsat import scenarios

    _, _, t_land = scenarios.balloon_flight_times()
    knots = list(scenarios._BALLOON_PACKAGE_KNOTS) + [(t_land, 5.0), (t_land + 400.0, 9.0)]
    t, temp = np.array(knots).T
    assert any(a == b for a, b in zip(temp, temp[1:]))
    ours, ref = MonotoneCubic(t, temp), PchipInterpolator(t, temp)
    grid = np.arange(0.0, t[-1] + 10.0, 0.5)
    for curve, reference in ((ours, ref), (ours.derivative(), ref.derivative())):
        assert np.array_equal(curve(grid).view(np.uint64), reference(grid).view(np.uint64))


def test_monotone_cubic_rejects_bad_knots():
    for x, y in (([0.0], [0.0]), ([0.0, 1.0], [0.0]), ([0.0, 0.0], [0.0, 1.0]),
                 ([1.0, 0.0], [0.0, 1.0]), ([0.0, float("nan")], [0.0, 1.0]),
                 ([0.0, 1.0], [0.0, float("inf")])):
        with pytest.raises(ValueError):
            MonotoneCubic(x, y)
