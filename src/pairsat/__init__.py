"""Simulator for an autonomous correlated-photon-pair nanosatellite payload.

The package models the full chain from pair source to downlinked data:
photon statistics and detector response (physics), the liquid-crystal
analyzer (lc_optics), the thermal/power budget (thermal_power), the flight
state machine (controller), redundant flash telemetry (telemetry), the
visibility fitting pipeline (analysis), and end-to-end mission scenarios
(scenarios).
"""

from .analysis import FitResult, ScanData, correct_accidentals, fit_sinusoid, visibility
from .controller import FlightController, Mode, ScanConfig, run_scan
from .physics import ApdParams, SourceParams, accidental_rate, overlap_factor
from .scenarios import RunSummary, Scenario, make_scenario, run_simulation
from .telemetry import FlashImage, TelemetryRecord, read_records

__version__ = "0.1.0"

__all__ = [
    "ApdParams",
    "FitResult",
    "FlashImage",
    "FlightController",
    "Mode",
    "RunSummary",
    "ScanConfig",
    "ScanData",
    "Scenario",
    "SourceParams",
    "TelemetryRecord",
    "accidental_rate",
    "correct_accidentals",
    "fit_sinusoid",
    "make_scenario",
    "overlap_factor",
    "read_records",
    "run_scan",
    "run_simulation",
    "visibility",
    "__version__",
]
