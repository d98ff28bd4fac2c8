"""Build one workload's inputs in a fresh interpreter and time the build.

    python3 bench/setup_inputs.py --scenario lab --duration 480 --seed 1
    python3 bench/setup_inputs.py --scenario leo --duration 7500 --seed 3 \\
        --image .bench_work/flash.bin

The timed set-up runs from the first import of pairsat until the inputs are
ready: the scenario for a simulation workload; the simulated, damaged and
saved flash image for the analysis workload, with one bit flipped in each
of common.CORRUPT_SLOTS seeded sector-A slots. A fresh interpreter per
repetition makes import-time work part of set-up, as it is for every
`pairsat` command. Checks on the image run after the clock stops. The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

import common


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--duration", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--image", help="simulate, damage and save a flash image here")
    args = parser.parse_args(argv)
    common.use_source_tree()

    t0 = time.perf_counter()
    from pairsat import scenarios, telemetry

    scenario = scenarios.make_scenario(args.scenario, args.duration, args.seed)
    if args.image is None:
        setup_s = time.perf_counter() - t0
        common.check_source_import()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    flash, summary = scenarios.run_simulation(scenario)
    used = min(flash.cursor, telemetry.SECTOR_CAPACITY)
    damaged = telemetry.FlashImage(
        sector_a=bytearray(flash.sector_a),
        sector_b=bytearray(flash.sector_b),
        cursor=flash.cursor,
    )
    corrupted = common.flip_bits(
        damaged.sector_a, used, np.random.default_rng(args.seed), common.CORRUPT_SLOTS
    )
    telemetry.save_image(damaged, args.image)
    setup_s = time.perf_counter() - t0

    common.check_source_import()
    clean = telemetry.read_records(flash)
    reloaded = telemetry.load_image(args.image)
    print(json.dumps({
        "setup_s": setup_s,
        "digest": common.flash_digest(flash),
        "sectors_equal": flash.sector_a == flash.sector_b,
        "records_written": summary.records_written,
        "records": len(clean),
        "corrupted_slots": len(corrupted),
        "repaired_slots": common.repaired_slots(reloaded),
        "readback_equal": telemetry.read_records(reloaded) == clean,
        "committed": sorted({
            r.scan_id for r in clean
            if r.flags & telemetry.FLAG_SCAN_COMMIT and r.scan_id != 0
        }),
        "flight": {str(s.scan_id): s.visibility.hex() for s in summary.scans},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
