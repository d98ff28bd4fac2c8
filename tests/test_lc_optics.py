"""Calibration curve, settling state machine, and analyzer leakage."""

import dataclasses
import math

import numpy as np
import pytest

from pairsat.lc_optics import (
    SETTLE_TIME_S,
    TWO_PI,
    LcCalibration,
    LcState,
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
    st = command_voltage(LcState(), 3.0)
    assert not st.settled
    assert st.settle_remaining_s == SETTLE_TIME_S
    st = step_settle(st, 0.1)
    assert st.settle_remaining_s == pytest.approx(0.2)
    assert not st.settled
    st = step_settle(st, 0.2)
    assert st.settled and st.settle_remaining_s == 0.0
    # absorbing once settled
    assert step_settle(st, 1.0) == st


def test_settle_closes_exactly_on_tick_grid():
    # each state is the one `dataclasses.replace` builds from the last
    st = ref = command_voltage(LcState(), 5.0)
    for i in range(6):
        st = step_settle(st, 0.05)
        remaining = ref.settle_remaining_s - 0.05
        remaining = 0.0 if remaining < 1e-12 else remaining
        ref = dataclasses.replace(ref, settled=remaining == 0.0, settle_remaining_s=remaining)
        assert st == ref and st.settled == (i == 5)
    assert st.settle_remaining_s == 0.0 and st.commanded_voltage == 5.0


def test_recommand_restarts_timer():
    st = command_voltage(LcState(), 3.0)
    for _ in range(6):
        st = step_settle(st, 0.05)
    assert st.settled
    # same voltage written again still forces a fresh settle interval
    st = command_voltage(st, 3.0)
    assert not st.settled
    assert st.settle_remaining_s == SETTLE_TIME_S


def test_state_invariant_enforced():
    with pytest.raises(ValueError):
        LcState(commanded_voltage=1.0, settled=True, settle_remaining_s=0.1)
    with pytest.raises(ValueError):
        LcState(commanded_voltage=1.0, settled=False, settle_remaining_s=0.0)


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
