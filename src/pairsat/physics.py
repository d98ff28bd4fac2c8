"""Photon-pair statistics and detector response models.

Closed-form expected rates for a collinear down-conversion source
(pump photon splitting into a signal/idler pair), Poisson sampling of
singles and coincidence counts, and the avalanche-photodiode amplitude
model used by the bias feedback loop.

All rates are in events per second, wavelengths in nanometres,
durations in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

COINCIDENCE_WINDOW_S = 9e-9

# Peak detected true-pair rate at the reference 9 mW pump drive. Chosen so
# the raw peak (true + accidental at 360k/330k singles) lands near 4500/s.
DEFAULT_PEAK_PAIR_RATE_HZ = 3431.0
DEFAULT_PUMP_POWER_MW = 9.0
# overvoltage of the nominal operating point, where the efficiency factor is 1
REFERENCE_OVERVOLTS = 10.0


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Idler wavelength from energy conservation, 1/li = 1/lp - 1/ls.

    Parameters
    ----------
    pump_nm : float
        Pump wavelength, must be positive and below the signal wavelength.
    signal_nm : float
        Signal wavelength.

    Returns
    -------
    float
        Idler wavelength in nm.
    """
    if pump_nm <= 0 or signal_nm <= pump_nm:
        raise ValueError(
            f"need 0 < pump < signal, got pump={pump_nm}, signal={signal_nm}"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def accidental_rate(s1_hz: float, s2_hz: float, window_s: float) -> float:
    """Expected accidental coincidence rate s1*s2*window for uncorrelated singles."""
    if s1_hz < 0 or s2_hz < 0 or window_s < 0:
        raise ValueError("rates and window must be nonnegative")
    return s1_hz * s2_hz * window_s


def overlap_factor(detector_dia_mm: float, beam_dia_mm: float) -> float:
    """Geometric collection factor of a detector smaller than the beam.

    Area ratio of the two diameters, clamped to 1 when the detector is
    at least as large as the beam.
    """
    if detector_dia_mm <= 0 or beam_dia_mm <= 0:
        raise ValueError("diameters must be positive")
    return min(1.0, (detector_dia_mm / beam_dia_mm) ** 2)


def _check_finite(params) -> None:
    """Reject a parameter object any of whose fields is not a finite number,
    naming the field: NaN passes every ordered comparison as False, so the
    range checks alone would let it through. Both parameter classes are
    frozen, so no field changes after the check."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SourceParams:
    """Ground-truth description of the pair source, hidden from the analyzer.

    Every field is a finite number. ``pump_power_mw`` is the pump laser's
    nominal drive, which the laser monitor reads; ``pair_rate_per_mw`` is
    the true generated-and-detected pair rate per mW of pump power at the
    scan peak; ``true_visibility`` and ``phase_offset_rad`` shape the
    coincidence sinusoid the analyzer is later asked to recover. The idler
    wavelength is not a field: energy conservation fixes it from the pump
    and signal wavelengths.
    """

    pump_wavelength_nm: float = 405.0
    signal_wavelength_nm: float = 760.0
    pump_power_mw: float = DEFAULT_PUMP_POWER_MW
    pair_rate_per_mw: float = DEFAULT_PEAK_PAIR_RATE_HZ / DEFAULT_PUMP_POWER_MW
    true_visibility: float = 0.95
    phase_offset_rad: float = 0.0
    singles_rate_signal_hz: float = 360000.0
    singles_rate_idler_hz: float = 330000.0

    def __post_init__(self) -> None:
        _check_finite(self)
        # raises unless 0 < pump < signal
        idler_wavelength(self.pump_wavelength_nm, self.signal_wavelength_nm)
        if not 0.0 <= self.true_visibility <= 1.0:
            raise ValueError(f"true_visibility {self.true_visibility} outside [0, 1]")
        for name in (
            "pump_power_mw",
            "pair_rate_per_mw",
            "singles_rate_signal_hz",
            "singles_rate_idler_hz",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def idler_wavelength_nm(self) -> float:
        return idler_wavelength(self.pump_wavelength_nm, self.signal_wavelength_nm)

    @property
    def peak_pair_rate_hz(self) -> float:
        return self.pair_rate_per_mw * self.pump_power_mw


def true_pair_rate(src: SourceParams, analyzer_angle_rad: float) -> float:
    """True coincidence rate at an analyzer angle, no accidentals.

    peak * (1 + V*cos(2*theta - phi)) / 2; the factor 2 in the angle is the
    usual polarization doubling.
    """
    peak = src.peak_pair_rate_hz
    return peak * (
        1.0
        + src.true_visibility
        * math.cos(2.0 * analyzer_angle_rad - src.phase_offset_rad)
    ) / 2.0


def sample_counts(
    rates: tuple[float, float, float], dwell_s: float, rng: np.random.Generator
) -> tuple[int, int, int]:
    """Draw one Poisson count triple (singles_1, singles_2, coincidences).

    Coincidences are clamped to min(singles): a pair event needs a click on
    both detectors. Deterministic for a given generator state.
    """
    if dwell_s <= 0:
        raise ValueError("dwell must be positive")
    s1 = int(rng.poisson(rates[0] * dwell_s))
    s2 = int(rng.poisson(rates[1] * dwell_s))
    c = int(rng.poisson(rates[2] * dwell_s))
    return s1, s2, min(c, s1, s2)


@dataclass(frozen=True)
class ApdParams:
    """Avalanche photodiode model parameters, each a finite number, with
    supply rails 0 <= ``bias_min_v`` < ``bias_max_v``.

    Breakdown voltage drifts linearly with temperature; the avalanche pulse
    amplitude is proportional to the overvoltage above breakdown. Detection
    efficiency saturates with overvoltage (`detection_efficiency`, whose
    turn-on scale is ``efficiency_scale_v``), so holding the amplitude fixed
    holds the efficiency fixed.
    """

    breakdown_volts_at_25c: float = 112.0
    breakdown_tempco_v_per_c: float = 0.7
    amplitude_gain_per_overvolt: float = 0.1
    efficiency_scale_v: float = 4.0
    bias_min_v: float = 100.0
    bias_max_v: float = 130.0

    def __post_init__(self) -> None:
        _check_finite(self)
        for name in ("amplitude_gain_per_overvolt", "efficiency_scale_v"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # `avalanche_amplitude` refuses a negative bias, which the rails
        # could otherwise clamp a loop to
        if self.bias_min_v < 0.0:
            raise ValueError(f"bias_min_v must be nonnegative, got {self.bias_min_v}")
        if self.bias_min_v >= self.bias_max_v:
            raise ValueError("bias_min_v must be below bias_max_v")
        # every efficiency factor divides by it, and it is 0 for a scale so
        # large (about 2e17 V) that exp(-overvolts / scale) rounds to 1
        if detection_efficiency(self, REFERENCE_OVERVOLTS) == 0.0:
            raise ValueError(f"efficiency_scale_v {self.efficiency_scale_v} leaves no "
                             f"detection efficiency at {REFERENCE_OVERVOLTS} V over")


def detection_efficiency(params: ApdParams, overvolts: float) -> float:
    """Saturating turn-on of the detection efficiency with overvoltage:
    0 at or below breakdown, 1 - exp(-overvolts / efficiency_scale_v) above."""
    if overvolts <= 0:
        return 0.0
    return 1.0 - math.exp(-overvolts / params.efficiency_scale_v)


def breakdown_voltage(params: ApdParams, temp_c: float) -> float:
    return params.breakdown_volts_at_25c + params.breakdown_tempco_v_per_c * (
        temp_c - 25.0
    )


def avalanche_amplitude(params: ApdParams, bias_v: float, temp_c: float) -> float:
    """Avalanche pulse amplitude, gain * overvoltage, zero below breakdown."""
    if not 0.0 <= bias_v <= params.bias_max_v:
        raise ValueError(f"bias {bias_v} outside [0, {params.bias_max_v}]")
    over = bias_v - breakdown_voltage(params, temp_c)
    return params.amplitude_gain_per_overvolt * max(0.0, over)


def reference_efficiency(params: ApdParams) -> float:
    """`detection_efficiency` at `REFERENCE_OVERVOLTS`, which every
    efficiency factor divides by; positive for every valid `ApdParams`,
    which reject a scale that leaves it 0."""
    return detection_efficiency(params, REFERENCE_OVERVOLTS)


def efficiency_factor(params: ApdParams, bias_v: float, temp_c: float) -> float:
    """Detection-efficiency scale relative to the nominal operating point:
    `detection_efficiency` at the overvoltage over `reference_efficiency`.

    1.0 when the bias loop sits at its reference overvoltage; drops toward 0
    if the bias rails below breakdown plus reference.
    """
    over = max(0.0, bias_v - breakdown_voltage(params, temp_c))
    return detection_efficiency(params, over) / reference_efficiency(params)
