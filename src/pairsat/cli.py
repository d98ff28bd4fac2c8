"""Command-line entry points.

simulate    run a scenario and write the flash image / scan summary
analyze     turn a flash image back into step, fit and flash-health CSVs
powerbudget print the module power ledger and worst-case totals
linkbudget  downlink time for a given telemetry volume

Exit status is 0 on success, 1 on a power-budget violation, 2 on bad
arguments, malformed input files or a flash whose scans do not fit the
given dwell.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import analysis, scenarios, telemetry, thermal_power
from .controller import FLIGHT_SCAN
from .thermal_power import BudgetError


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = scenarios.make_scenario(
        args.scenario,
        duration_s=args.duration,
        seed=args.seed,
        profile_path=args.profile,
    )
    flash, summary = scenarios.run_simulation(scenario)
    if args.flash_out:
        telemetry.save_image(flash, args.flash_out)
    if args.summary_out:
        scenarios.summary_to_csv(summary, args.summary_out)
    print(
        f"{scenario.name}: {summary.duration_s:.0f} s simulated, "
        f"{len(summary.scans)} scans ({summary.aborted_scans} aborted), "
        f"{summary.records_written} records, "
        f"peak power {summary.max_total_power_w:.3f} W"
    )
    if summary.scans:
        vals = summary.visibilities
        print(
            f"visibility mean {sum(vals) / len(vals):.4f} "
            f"over {len(vals)} scans"
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows = analysis.analyze_flash(args.flash, args.out, dwell_s=args.dwell)
    print(f"{len(rows)} scans analyzed -> {args.out}")
    with open(os.path.join(args.out, analysis.HEALTH_CSV), newline="") as fh:
        health = next(csv.DictReader(fh))
    print("flash health: " + ", ".join(f"{k} {v}" for k, v in health.items()))
    if health["dwell_mismatch_scans_dropped"] != "0":
        print(f"error: {health['dwell_mismatch_scans_dropped']} committed scans have steps "
              f"of other record counts than a dwell of {args.dwell} s spans", file=sys.stderr)
        return 2
    return 0


def _cmd_powerbudget(_args: argparse.Namespace) -> int:
    print("module draws:")
    for name, watts in sorted(thermal_power.MODULE_DRAWS_W.items()):
        print(f"  {name:24s} {watts:.2f} W")
    print("worst-case totals:")
    for label, laser_on, heater in (
        ("operating, heater off", True, 0.0),
        ("operating, heater max", True, thermal_power.HEATER_CAP_OPERATING_W),
        ("idle, heater off", False, 0.0),
        ("idle, heater max", False, thermal_power.HEATER_CAP_IDLE_W),
    ):
        print(f"  {label:24s} {thermal_power.total_power(laser_on, heater):.2f} W")
    print(f"budget: {thermal_power.POWER_BUDGET_W:.2f} W")
    return 0


def _cmd_linkbudget(args: argparse.Namespace) -> int:
    seconds = telemetry.downlink_time(args.volume)
    print(
        f"{args.volume} bytes at {telemetry.LINK_RATE_BYTES_PER_S:.0f} B/s: "
        f"{seconds:.1f} s"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsat",
        description="Correlated-photon-pair payload simulator and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a mission scenario")
    sim.add_argument(
        "--scenario",
        required=True,
        choices=["lab", "leo", "thermalvac", "balloon", "custom"],
    )
    sim.add_argument("--profile", help="environment CSV for the custom scenario")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--duration", type=float,
                     help="override duration in seconds, truncated to whole 50 ms ticks")
    sim.add_argument("--flash-out", help="write the 2 MiB flash image here")
    sim.add_argument("--summary-out", help="write the per-scan summary CSV here")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="process a flash image into CSVs")
    ana.add_argument("--flash", required=True, help="flash image file")
    ana.add_argument("--out", required=True, help="output directory")
    ana.add_argument("--dwell", type=float, default=FLIGHT_SCAN.dwell_s,
                     help="dwell per step in seconds")
    ana.set_defaults(func=_cmd_analyze)

    pwr = sub.add_parser("powerbudget", help="print the power ledger")
    pwr.set_defaults(func=_cmd_powerbudget)

    lnk = sub.add_parser("linkbudget", help="downlink time for a data volume")
    lnk.add_argument("--volume", type=float, required=True, help="bytes to downlink")
    lnk.set_defaults(func=_cmd_linkbudget)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"power budget violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
