"""Rate formulas, Poisson sampling, and APD response."""

import dataclasses
import math

import numpy as np
import pytest

from pairsat.physics import (
    ApdParams,
    SourceParams,
    accidental_rate,
    avalanche_amplitude,
    breakdown_voltage,
    detection_efficiency,
    efficiency_factor,
    idler_wavelength,
    overlap_factor,
    sample_counts,
    true_pair_rate,
)


def test_idler_wavelength_from_pump_and_signal():
    assert idler_wavelength(405.0, 760.0) == pytest.approx(867.04, abs=0.005)
    assert idler_wavelength(405.0, 810.0) == pytest.approx(810.0, abs=1e-9)
    # symmetry: swapping the roles of the two daughters inverts the relation
    assert idler_wavelength(405.0, 867.042) == pytest.approx(760.0, abs=0.01)


def test_idler_wavelength_domain_errors():
    with pytest.raises(ValueError):
        idler_wavelength(0.0, 760.0)
    with pytest.raises(ValueError):
        idler_wavelength(-405.0, 760.0)
    with pytest.raises(ValueError):
        idler_wavelength(760.0, 405.0)


def test_energy_conservation_of_defaults():
    src = SourceParams()
    lhs = 1.0 / src.pump_wavelength_nm
    rhs = 1.0 / src.signal_wavelength_nm + 1.0 / src.idler_wavelength_nm
    assert abs(lhs - rhs) * src.pump_wavelength_nm < 1e-3
    # derived from the pump and signal, not held
    assert src.idler_wavelength_nm == idler_wavelength(405.0, 760.0)
    assert src.idler_wavelength_nm == pytest.approx(867.04, abs=0.005)


def test_source_params_rejects_nonconserving_triple():
    # a pump above the signal leaves no positive idler wavelength
    with pytest.raises(ValueError, match="0 < pump < signal"):
        SourceParams(pump_wavelength_nm=800.0)
    with pytest.raises(ValueError):
        SourceParams(true_visibility=1.2)
    with pytest.raises(ValueError):
        SourceParams(singles_rate_signal_hz=-1.0)


def test_accidental_rate_values():
    assert accidental_rate(360000.0, 330000.0, 9e-9) == 1069.2
    assert accidental_rate(0.0, 330000.0, 9e-9) == 0.0
    assert accidental_rate(360000.0, 330000.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        accidental_rate(-1.0, 330000.0, 9e-9)


def test_overlap_factor_values():
    assert overlap_factor(0.5, 0.8) == 0.390625
    assert overlap_factor(0.8, 0.8) == 1.0
    assert overlap_factor(1.6, 0.8) == 1.0
    with pytest.raises(ValueError):
        overlap_factor(0.0, 0.8)


def test_sinusoid_contrast_matches_true_visibility():
    src = SourceParams()
    thetas = np.linspace(0.0, 2.0 * math.pi, 721)
    rates = [true_pair_rate(src, t) for t in thetas]
    vis = (max(rates) - min(rates)) / (max(rates) + min(rates))
    assert vis == pytest.approx(src.true_visibility, abs=1e-6)
    # perfect contrast has a null at pi/2; no contrast is a flat curve
    assert true_pair_rate(SourceParams(true_visibility=1.0), math.pi / 2.0) == \
        pytest.approx(0.0, abs=1e-9)
    flat = SourceParams(true_visibility=0.0)
    assert true_pair_rate(flat, 1.234) == pytest.approx(flat.peak_pair_rate_hz / 2.0)


def test_true_pair_rate_peak_location():
    src = SourceParams(phase_offset_rad=0.6)
    # maximum sits where 2*theta equals the phase offset
    top = src.peak_pair_rate_hz * (1.0 + src.true_visibility) / 2.0
    assert true_pair_rate(src, 0.3) == pytest.approx(top)
    thetas = np.linspace(0.0, 2.0 * math.pi, 1441)
    assert max(true_pair_rate(src, t) for t in thetas) <= top + 1e-9


def test_sample_counts_determinism_and_mean():
    rates = (360000.0, 330000.0, 4414.0)
    a = sample_counts(rates, 0.45, np.random.default_rng(42))
    assert a == sample_counts(rates, 0.45, np.random.default_rng(42))
    assert all(type(n) is int for n in a)

    n = 10000
    rng = np.random.default_rng(7)
    sums = np.zeros(3)
    for _ in range(n):
        sums += sample_counts(rates, 0.45, rng)
    means = sums / n
    expect = np.array(rates) * 0.45
    for m, mu in zip(means, expect):
        assert abs(m - mu) < 3.0 * math.sqrt(mu / n)


def test_sample_counts_zero_rates_and_ceiling():
    rng = np.random.default_rng(1)
    assert sample_counts((0.0, 0.0, 0.0), 0.45, rng) == (0, 0, 0)
    # coincidence rate far above singles still clamps to the smaller singles count
    for _ in range(200):
        s1, s2, c = sample_counts((50.0, 40.0, 5000.0), 0.1, rng)
        assert c == min(s1, s2)


# every field of both parameter classes
PARAM_FIELDS = [(cls, f.name) for cls in (SourceParams, ApdParams) for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, name", PARAM_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in PARAM_FIELDS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(cls, name, value):
    # NaN fails every ordered comparison, so only a finiteness check stops it
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


def test_params_are_frozen():
    # a field set after construction would skip the checks
    with pytest.raises(dataclasses.FrozenInstanceError):
        SourceParams().pump_power_mw = math.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        ApdParams().efficiency_scale_v = math.nan


@pytest.mark.parametrize("name, value", [
    ("efficiency_scale_v", 0.0), ("efficiency_scale_v", -4.0),
    ("efficiency_scale_v", math.inf), ("efficiency_scale_v", math.nan),
    ("amplitude_gain_per_overvolt", 0.0), ("amplitude_gain_per_overvolt", -0.1),
    # `avalanche_amplitude` refuses a negative bias, which a loop railed at
    # such a floor would hold
    ("bias_min_v", -1.0),
])
def test_apd_params_reject_scale_or_gain_not_positive(name, value):
    with pytest.raises(ValueError, match=name):
        ApdParams(**{name: value})


def test_apd_params_reject_a_scale_with_no_reference_efficiency():
    # exp(-10 V / scale) rounds to 1, and every efficiency factor would divide by 0
    for scale in (1e18, 1e300):
        with pytest.raises(ValueError, match="efficiency_scale_v"):
            ApdParams(efficiency_scale_v=scale)
    assert 0.0 < efficiency_factor(ApdParams(efficiency_scale_v=1e17), 122.0, 25.0)


def test_breakdown_voltage_tempco():
    p = ApdParams()
    assert breakdown_voltage(p, 25.0) == 112.0
    assert breakdown_voltage(p, 35.0) == pytest.approx(112.0 + 7.0)
    assert breakdown_voltage(p, 15.0) == pytest.approx(112.0 - 7.0)


def test_avalanche_amplitude_model():
    p = ApdParams()
    amp25 = avalanche_amplitude(p, 122.0, 25.0)
    amp35 = avalanche_amplitude(p, 122.0, 35.0)
    # +10 C moves breakdown up 7 V, so amplitude drops by gain * 7
    assert amp25 - amp35 == pytest.approx(p.amplitude_gain_per_overvolt * 7.0)
    assert avalanche_amplitude(p, breakdown_voltage(p, 25.0), 25.0) == 0.0
    assert avalanche_amplitude(p, 100.0, 25.0) == 0.0  # below breakdown clamps
    with pytest.raises(ValueError):
        avalanche_amplitude(p, 131.0, 25.0)


def test_efficiency_factor_saturates_and_normalizes():
    p = ApdParams()
    # at the reference overvoltage the factor is one by construction
    assert efficiency_factor(p, 122.0, 25.0) == pytest.approx(1.0)
    low = efficiency_factor(p, 115.0, 25.0)
    assert 0.0 < low < 1.0
    factors = [efficiency_factor(p, b, 25.0) for b in np.linspace(112.0, 130.0, 30)]
    assert all(b2 >= b1 for b1, b2 in zip(factors, factors[1:]))
    # the turn-on is zero up to breakdown and saturates on the APD's scale
    slow = ApdParams(efficiency_scale_v=5.0)
    assert detection_efficiency(slow, 0.0) == detection_efficiency(slow, -3.0) == 0.0
    assert detection_efficiency(slow, 5.0) == 1.0 - math.exp(-1.0)
    assert efficiency_factor(slow, 122.0, 25.0) == 1.0


def test_rng_stream_is_pinned():
    # the golden flash digests rest on numpy's `Generator.standard_normal`
    # and `Generator.poisson` algorithms, which numpy's RNG policy (NEP 19)
    # does not freeze; a numpy that changes either fails here, as a changed
    # stream, before it fails the digests. Seed 1, in the engine's order: a
    # laser draw, then the counts at lab singles and peak coincidence rates
    # over one 50 ms tick. Pinned on numpy 2.4.6.
    rng = np.random.default_rng(1)
    stream = []
    for _ in range(2):
        stream.append(rng.standard_normal().hex())
        stream.extend(int(rng.poisson(rate * 0.05)) for rate in (360000.0, 330000.0, 4500.0))
    assert stream == ["0x1.61e0d28bbb3a1p-2", 18306, 16787, 222,
                      "0x1.29884fe946122p-1", 18019, 16599, 217]
