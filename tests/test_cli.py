"""Exit codes, output files, and console text of the pairsat CLI."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from pairsat import telemetry, thermal_power
from pairsat.cli import main
from pairsat.scenarios import lab_profile, make_scenario, run_simulation, save_profile_csv


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
            f"blank {telemetry.SECTOR_CAPACITY - written}, partial_scans_dropped 0, "
            "dwell_mismatch_scans_dropped 0") in text
    # the per-scan fits are in summary.csv, not on stdout
    assert not [line for line in text.splitlines() if line.startswith("scan ")]

    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scan_id"] for r in rows] == ["1", "2", "3", "4"]
    assert [r["pair"] for r in rows] == ["0", "1", "0", "1"]
    for row in rows:
        assert 0.9 < float(row["visibility"]) < 1.0
    with open(os.path.join(out_dir, "scans.csv"), newline="") as fh:
        steps = list(csv.DictReader(fh))
    assert len({row["scan_id"] for row in steps}) == 4

    # 0.9 s of dwell would span 8 or 9 records per step; the flight's 0.45 s
    # spans 4 or 5, so every scan is dropped and the analysis fails
    rc = run_cli("analyze", "--flash", flash_path, "--out", out_dir, "--dwell", "0.9")
    assert rc == 2
    captured = capsys.readouterr()
    assert "0 scans analyzed" in captured.out
    assert "dwell_mismatch_scans_dropped 4" in captured.out
    assert "dwell of 0.9 s" in captured.err


def test_analyze_wrapped_image_drops_its_cut_first_scan(tmp_path, capsys):
    # leo 7 308.75 s, seed 3: the ring keeps 3 of the 4 step-0 counting
    # records of scan 1, whose other steps are whole, so the grouping alone
    # took it for a dwell mismatch and exited 2; the wrap makes it partial
    flash, summary = run_simulation(make_scenario("leo", duration_s=7308.75, seed=3))
    rows = telemetry.read_records(flash, as_table=True).rows
    counting = (rows["flags"] & telemetry.FLAG_COUNTING) != 0
    assert rows["scan_id"][0] == 1
    assert np.count_nonzero(counting & (rows["scan_id"] == 1) & (rows["step"] == 0)) == 3
    flash_path = os.fspath(tmp_path / "flash.bin")
    telemetry.save_image(flash, flash_path)
    out_dir = os.fspath(tmp_path / "analysis")
    assert run_cli("analyze", "--flash", flash_path, "--out", out_dir) == 0
    assert "partial_scans_dropped 1, dwell_mismatch_scans_dropped 0" in capsys.readouterr().out
    # every other scan is fitted as the flight fitted it
    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        ground = [tuple(row.values()) for row in csv.DictReader(fh)]
    assert ground == [
        (str(s.scan_id), str(s.pair), f"{s.visibility:.6f}", f"{s.phase_rad:.6f}",
         f"{s.rms_residual:.3f}", str(int(s.converged)))
        for s in summary.scans if s.scan_id != 1
    ]


def test_simulate_custom_profile(tmp_path, capsys):
    path = os.fspath(tmp_path / "bench.csv")
    save_profile_csv(lab_profile(60.0), path)
    rc = run_cli("simulate", "--scenario", "custom", "--profile", path, "--seed", "2")
    assert rc == 0
    assert "custom: 60 s simulated" in capsys.readouterr().out


def test_simulate_rejects_a_run_past_its_profile(tmp_path, capsys):
    # the run used to hold the profile's last sample for the rest of it
    path = os.fspath(tmp_path / "bench.csv")
    save_profile_csv(lab_profile(60.0), path)
    cases = [(["--scenario", "custom", "--profile", path, "--duration", "600"], "600.0", "60.0"),
             (["--scenario", "balloon", "--duration", "12000"], "12000.0", "9610.0")]
    for argv, duration, end in cases:
        assert run_cli("simulate", *argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"duration {duration} s" in err and end in err, err


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
    expected = telemetry.downlink_time(volume)
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
    # numbers that are not finite, or not positive where they must be, are
    # refused by name, also on a flash without a committed scan
    committed = os.fspath(tmp_path / "lab.bin")
    assert run_cli("simulate", "--scenario", "lab", "--duration", "40",
                   "--flash-out", committed) == 0
    blank = os.fspath(tmp_path / "blank.bin")
    telemetry.save_image(telemetry.FlashImage(), blank)
    out = os.fspath(tmp_path / "out")
    capsys.readouterr()
    cases = [(["simulate", "--scenario", "lab", "--duration", d], "duration", d)
             for d in ("inf", "nan", "0", "0.01")]
    cases += [(["analyze", "--flash", flash, "--out", out, "--dwell", d], "dwell", d)
              for flash in (committed, blank) for d in ("inf", "nan", "0", "-1")]
    cases += [(["linkbudget", "--volume", v], "volume", v) for v in ("nan", "inf")]
    for value in ("nan", "inf"):
        profile = tmp_path / f"{value}.csv"
        profile.write_text("t_s,temp_c,pressure_mbar,altitude_m,accel_g\n"
                           f"0,20,0,0,1\n75,{value},0,0,1\n150,20,0,0,1\n")
        cases.append((["simulate", "--scenario", "custom", "--profile", os.fspath(profile),
                       "--duration", "150"], "temp_c", value))
    # a profile that starts after the run, whose first sample the run used
    # to hold for every tick before it
    late = tmp_path / "late.csv"
    late.write_text("t_s,temp_c,pressure_mbar,altitude_m,accel_g\n100,20,0,0,1\n700,20,0,0,1\n")
    cases.append((["simulate", "--scenario", "custom", "--profile", os.fspath(late),
                   "--duration", "600"], "profile starts at", "100"))
    for argv, name, value in cases:
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and str(float(value)) in err, err


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


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is only the tests' reference: with it blocked, the CLI imports
    # without it and a simulate/analyze round trip runs
    script = f"""
import sys
sys.modules["scipy"] = None
import pairsat.cli
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
flash = {os.fspath(tmp_path / "flash.bin")!r}
assert pairsat.cli.main(["simulate", "--scenario", "lab", "--duration", "60",
                         "--flash-out", flash]) == 0
assert pairsat.cli.main(["analyze", "--flash", flash, "--out", {os.fspath(tmp_path / "out")!r}]) == 0
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "1 scans analyzed" in proc.stdout
