"""Exit codes, output files, and console text of the pairsat CLI."""

import csv
import os
import subprocess
import sys

import pytest

from pairsat import telemetry, thermal_power
from pairsat.cli import main
from pairsat.scenarios import lab_profile, save_profile_csv


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_simulate_writes_outputs(tmp_path, capsys):
    flash_path = os.fspath(tmp_path / "flash.bin")
    summary_path = os.fspath(tmp_path / "summary.csv")
    rc = run_cli(
        "simulate", "--scenario", "lab", "--duration", "60", "--seed", "7",
        "--flash-out", flash_path, "--summary-out", summary_path,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "lab: 60 s simulated" in out
    assert "visibility mean" in out

    flash = telemetry.load_image(flash_path)
    records = telemetry.read_records(flash)
    assert len(records) == 60 * 8

    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1  # the second scan has not committed by t=60 s
    assert rows[0]["scan_id"] == "1"
    assert 0.9 < float(rows[0]["visibility"]) < 1.0
    assert rows[0]["converged"] == "1"


def test_analyze_round_trip(tmp_path, capsys):
    flash_path = os.fspath(tmp_path / "flash.bin")
    rc = run_cli(
        "simulate", "--scenario", "lab", "--duration", "120", "--seed", "7",
        "--flash-out", flash_path,
    )
    assert rc == 0
    capsys.readouterr()

    out_dir = os.fspath(tmp_path / "analysis")
    rc = run_cli("analyze", "--flash", flash_path, "--out", out_dir)
    assert rc == 0
    text = capsys.readouterr().out
    assert "4 scans analyzed" in text
    written = 120 * 8
    assert (f"flash health: valid_a {written}, repaired_from_b 0, doubly_corrupt 0, "
            f"blank {telemetry.SECTOR_CAPACITY - written}, partial_scans_dropped 0") in text

    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scan_id"] for r in rows] == ["1", "2", "3", "4"]
    assert [r["pair"] for r in rows] == ["0", "1", "0", "1"]
    for row in rows:
        assert 0.9 < float(row["visibility"]) < 1.0
    scan_files = sorted(f for f in os.listdir(out_dir) if f.startswith("scan_"))
    assert len(scan_files) == 4


def test_simulate_custom_profile(tmp_path, capsys):
    path = os.fspath(tmp_path / "bench.csv")
    save_profile_csv(lab_profile(60.0), path)
    rc = run_cli("simulate", "--scenario", "custom", "--profile", path, "--seed", "2")
    assert rc == 0
    assert "custom: 60 s simulated" in capsys.readouterr().out


def test_powerbudget_report(capsys):
    rc = run_cli("powerbudget")
    assert rc == 0
    out = capsys.readouterr().out
    assert "budget: 2.00 W" in out
    for name in thermal_power.MODULE_DRAWS_W:
        assert name in out
    assert "operating, heater max" in out
    assert "idle, heater max" in out


def test_powerbudget_violation_exit_code(monkeypatch, capsys):
    # an over-generous operating heater cap pushes the worst case past 2 W
    monkeypatch.setattr(thermal_power, "HEATER_CAP_OPERATING_W", 1.0)
    rc = run_cli("powerbudget")
    assert rc == 1
    assert "power budget violation" in capsys.readouterr().err


def test_linkbudget_matches_library(capsys):
    volume = 2 * telemetry.SECTOR_BYTES
    expected = telemetry.downlink_time(telemetry.LinkBudget(volume))
    rc = run_cli("linkbudget", "--volume", str(volume))
    assert rc == 0
    assert f"{expected:.1f} s" in capsys.readouterr().out


def test_parse_errors_exit_2(capsys):
    assert run_cli("warpdrive") == 2
    assert run_cli("simulate") == 2  # --scenario is required
    assert run_cli("simulate", "--scenario", "marsflyby") == 2
    capsys.readouterr()


def test_bad_inputs_exit_2(tmp_path, capsys):
    # custom without a profile
    assert run_cli("simulate", "--scenario", "custom") == 2
    # missing flash image
    missing = os.fspath(tmp_path / "nope.bin")
    assert run_cli("analyze", "--flash", missing, "--out", os.fspath(tmp_path)) == 2
    # negative downlink volume
    assert run_cli("linkbudget", "--volume", "-1") == 2
    # malformed custom CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert run_cli("simulate", "--scenario", "custom", "--profile", os.fspath(bad)) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_help_exits_clean(capsys):
    assert run_cli("--help") == 0
    assert "simulate" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pairsat.cli", "powerbudget"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "budget" in proc.stdout
