#!/usr/bin/env python3
"""pairsat benchmark: host time of the flight simulation and of the ground
analysis, end to end and layer by layer.

    python3 bench/run_bench.py --workload lab_scan --seed 1 --seconds 10 --trace 0

Workloads (bench/README.md says why each exists):
    lab_scan        make_scenario("lab") + run_simulation, 480 s of bench time
    leo_cold        make_scenario("leo", 3000) + run_simulation: heating only
    ground_analyze  analyze_flash on a leo 7500 s flash image with sector A damaged

Each run sets up three times, each in a fresh interpreter, and after each
set-up repeats the timed call, closed loop in one thread, for a third of
--seconds (at least MIN_OPS calls in all); it reports medians. With --trace 0
it prints the end-to-end metrics; with --trace 1 it sets up once, alternates
plain and traced calls and prints the per-layer metrics of the traced ones.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is 1 when a correctness check fails and
2 when the checkout holds no pairsat source.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import common
import tracer

MIN_OPS = 3
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
TICK_S = 0.05
RECORD_PERIOD_S = 0.125
WORK_DIR = common.ROOT / ".bench_work"

# Golden flash digests: first 16 hex digits of sha256(sector_a + sector_b),
# keyed by (scenario, duration_s, seed); seed None pins every seed. Pinned on
# numpy 2.4.6.
PINS = {
    ("lab", 480.0, 1): "a4889941ee660642",
    ("leo", 4500.0, 3): "43d159792e2069e1",
    # the laser stays off, so nothing draws from the seeded generator
    ("leo", 3000.0, None): "ff94306b49a011d9",
}


def pin_for(scenario: str, duration: float, seed: int) -> str | None:
    return PINS.get((scenario, duration, seed), PINS.get((scenario, duration, None)))


@dataclass(frozen=True)
class Workload:
    scenario: str
    duration_s: float
    tiny_duration_s: float  # the smoke test's size
    analyze: bool = False  # time analyze_flash on a saved image, not the simulation


WORKLOADS = {
    "lab_scan": Workload("lab", 480.0, 480.0),
    # the housing reaches the 20 C laser gate at 3202 s on every seed
    "leo_cold": Workload("leo", 3000.0, 300.0),
    # the ring holds the last 4096 s, so it starts inside a scan at 3404 s
    "ground_analyze": Workload("leo", 7500.0, 4500.0, analyze=True),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "tick_us": "us", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "ratio" for name in tracer.RATIOS})
    units.update(REPAIR_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


class Checks:
    """Operation counts and correctness failures of one run.

    Counts cover one distinct input: every repetition must reproduce the
    first one exactly, or the run is incorrect.
    """

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.notes: list[str] = []

    def error(self, message: str) -> None:
        self.errors.append(message)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes.append(f"{what}: {failed} failed of {attempted}")

    def repeat(self, fingerprint, traced: bool) -> bool:
        """Record the first result; return True for it, and flag any later
        result that differs."""
        if self.reference is None:
            self.reference = fingerprint
            return True
        if fingerprint != self.reference:
            self.error(("traced" if traced else "repeated") + " call gave a different result")
        return False


def run_child(script: str, args: list[str]) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name(script)), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode if proc.returncode > 0 else 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(op, check, seconds: float, trace: bool, min_ops: int, samples: dict) -> None:
    """Call op() until `seconds` have passed and `samples` holds at least
    min_ops plain times.

    With trace, calls alternate plain and traced. Appends to samples'
    "plain" and "traced" times and to "layers", one snapshot per traced call.
    """
    plain, traced, layers = samples["plain"], samples["traced"], samples["layers"]
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        gc.collect()
        if use_trace:
            tr = tracer.Tracer()
            tr.install()
            try:
                elapsed, result = op()
            finally:
                tr.uninstall()
            traced.append(elapsed)
            layers.append(tr.snapshot())
        else:
            elapsed, result = op()
            plain.append(elapsed)
        check(result, use_trace)
        done = len(plain) >= min_ops and (not trace or len(traced) == len(plain))
        if done and time.perf_counter() - start >= seconds:
            return


def sim_workload(wl: Workload, duration: float, seed: int, work: Path, checks: Checks):
    """The timed call and its checks for a simulation workload."""
    from pairsat import scenarios, telemetry

    scenario = scenarios.make_scenario(wl.scenario, duration, seed)
    pin = pin_for(wl.scenario, duration, seed)
    info: dict = {"ticks": round(duration / TICK_S)}

    def op():
        t0 = time.perf_counter()
        result = scenarios.run_simulation(scenario)
        return time.perf_counter() - t0, result

    def check(result, traced: bool) -> None:
        flash, summary = result
        digest = common.flash_digest(flash)
        fingerprint = (digest, summary.records_written, summary.aborted_scans,
                       [(s.scan_id, s.visibility.hex()) for s in summary.scans])
        if not checks.repeat(fingerprint, traced):
            return
        if flash.sector_a != flash.sector_b:
            checks.error("sector_a and sector_b differ")
        if pin is not None and digest != pin:
            checks.error(f"flash digest {digest} != pinned {pin}")
        written = summary.records_written
        if flash.cursor != written or written > telemetry.SECTOR_CAPACITY:
            checks.error(f"{written} records written, cursor {flash.cursor}; "
                         "this workload must not wrap the ring")
        bad = common.unreadable_records(flash, min(written, telemetry.SECTOR_CAPACITY))
        checks.count(written, bad, "records read back from both sectors")
        if bad:
            checks.error(f"{bad} records do not read back")
        image = work / "flash.bin"
        telemetry.save_image(flash, str(image))
        ground = run_child("refit.py", [str(image), str(work / "out")])
        mismatched = sum(1 for s in summary.scans
                         if ground.get(str(s.scan_id)) != s.visibility.hex())
        checks.count(len(summary.scans) + summary.aborted_scans,
                     summary.aborted_scans + mismatched,
                     "scan attempts (aborted, or ground re-fit differs)")
        if wl.scenario == "leo" and summary.laser_activations:
            checks.error("laser turned on; leo_cold must end before the 20 C gate")
        info["digest"] = digest
        info["scans"] = len(summary.scans)

    return op, check, info


def check_other_pins(wl: Workload, duration: float, seed: int, checks: Checks) -> None:
    """Simulate once, untimed, each pinned seed of this scenario and
    duration other than the run's own, so that a change of the flash bits
    fails the run whatever its --seed."""
    from pairsat import scenarios

    for (scenario, pinned_duration, pinned_seed), pin in PINS.items():
        if (scenario, pinned_duration) != (wl.scenario, duration) or pinned_seed in (None, seed):
            continue
        flash, _ = scenarios.run_simulation(
            scenarios.make_scenario(scenario, duration, pinned_seed))
        digest = common.flash_digest(flash)
        if digest != pin:
            checks.error(f"{scenario} {duration:g} s seed {pinned_seed}: "
                         f"flash digest {digest} != pinned {pin}")


def check_setups(wl: Workload, duration: float, seed: int, children: list[dict],
                 checks: Checks) -> None:
    """Every set-up of one seed must build the same, repairable image."""
    digests = {c["digest"] for c in children}
    if len(digests) > 1:
        checks.error(f"set-ups of one seed gave different flash digests {sorted(digests)}")
    pin = pin_for(wl.scenario, duration, seed)
    if pin is not None and children[0]["digest"] != pin:
        checks.error(f"flash digest {children[0]['digest']} != pinned {pin}")
    for c in children:
        if not c["sectors_equal"]:
            checks.error("sector_a and sector_b differ before damage")
        if not c["readback_equal"]:
            checks.error("damaged image reads back other records than the clean one")
        if c["repaired_slots"] != c["corrupted_slots"]:
            checks.error(f"{c['corrupted_slots']} slots damaged, "
                         f"{c['repaired_slots']} repairable from sector B")


def ground_workload(first: dict, image: Path, checks: Checks):
    """The timed call and its checks for the ground analysis workload, on
    the image and flight results of the first set-up."""
    from pairsat import analysis

    info: dict = {"ticks": round(first["records"] * RECORD_PERIOD_S / TICK_S),
                  "digest": first["digest"]}
    calls = itertools.count()

    def op():
        # A fresh output directory per call, removed after the clock stops:
        # truncating the last call's CSVs would wait on their writeback, and
        # that disk latency swamped the analysis time.
        out_dir = image.parent / f"out{next(calls)}"
        t0 = time.perf_counter()
        rows = analysis.analyze_flash(str(image), str(out_dir))
        elapsed = time.perf_counter() - t0
        shutil.rmtree(out_dir)
        return elapsed, rows

    def check(rows, traced: bool) -> None:
        if not checks.repeat(rows, traced):
            return
        by_id = {r["scan_id"]: r for r in rows}
        flight = first["flight"]
        failed = sum(
            1 for sid in first["committed"]
            if sid not in by_id or str(sid) not in flight
            or by_id[sid]["visibility"].hex() != flight[str(sid)]
        )
        checks.count(len(first["committed"]), failed,
                     "committed scans in the ring (cut, dropped or differing from flight)")
        info["scans"] = len(rows)

    return op, check, info


REPAIR_UNITS = {
    "telemetry.read_records.clean_slot_us": "us",
    "telemetry.read_records.repaired_slot_us": "us",
    "telemetry.read_records.repair_share": "ratio",
}


def repair_costs(image: Path, repeats: int = 3) -> dict[str, float]:
    """Untraced cost of read_records per clean slot and per slot repaired
    from sector B, and the share of its time on the workload's image that
    goes to the repaired slots.

    Each cost is the median time of read_records on a whole image of one
    kind of slot, over the slots: a clean copy holding sector B in both
    sectors, as the image did before sector A was damaged, and a copy with
    one bit flipped in every sector-A slot.
    """
    import numpy as np
    from pairsat import telemetry

    damaged = telemetry.load_image(str(image))
    copies = [telemetry.FlashImage(sector_a=bytearray(damaged.sector_b),
                                   sector_b=bytearray(damaged.sector_b)) for _ in range(2)]
    used = len(telemetry.read_records(copies[0]))
    common.flip_bits(copies[1].sector_a, used, np.random.default_rng(0), used)
    per_slot = []
    for flash in copies:
        times = []
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            telemetry.read_records(flash)
            times.append(time.perf_counter() - t0)
        per_slot.append(statistics.median(times) / used)
    clean_slot, repaired_slot = per_slot
    repaired = common.repaired_slots(damaged)
    return {
        "telemetry.read_records.clean_slot_us": clean_slot * 1e6,
        "telemetry.read_records.repaired_slot_us": repaired_slot * 1e6,
        "telemetry.read_records.repair_share": repaired * repaired_slot
            / (repaired * repaired_slot + (used - repaired) * clean_slot),
    }


def env_stamp() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: shorter scenarios, one set-up; "
                             "figures are not comparable with full runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    common.use_source_tree()

    env = env_stamp()
    wl = WORKLOADS[args.workload]
    duration = wl.tiny_duration_s if args.tiny else wl.duration_s
    # A traced run reports no setup_s, so it sets up once. Otherwise the
    # measurement is split into one slice after each set-up, which spreads
    # it over the whole run and so averages over more of the host's drift.
    repeats = 1 if args.tiny or args.trace else SETUP_REPEATS
    samples: dict = {"plain": [], "traced": [], "layers": []}
    children: list[dict] = []
    checks = Checks()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        base = ["--scenario", wl.scenario, "--duration", str(duration), "--seed", str(args.seed)]
        for i in range(repeats):
            image = work / f"flash{i}.bin"
            children.append(run_child("setup_inputs.py",
                                      base + (["--image", str(image)] if wl.analyze else [])))
            if i == 0:
                common.check_source_import()
                if wl.analyze:
                    op, check, info = ground_workload(children[0], image, checks)
                else:
                    op, check, info = sim_workload(wl, duration, args.seed, work, checks)
            last = i == repeats - 1
            measure(op, check, args.seconds / repeats, bool(args.trace),
                    MIN_OPS if last else len(samples["plain"]) + 1, samples)
        if wl.analyze:
            check_setups(wl, duration, args.seed, children, checks)
            if args.trace:
                repair = repair_costs(work / "flash0.bin")
        else:
            check_other_pins(wl, duration, args.seed, checks)
            repair = dict.fromkeys(REPAIR_UNITS, 0.0)  # no flash is read
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    plain, traced, layers = samples["plain"], samples["traced"], samples["layers"]
    run_s = statistics.median(plain)
    if args.trace:
        units = layer_units()
        metrics = {name: statistics.median_low(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics.update(repair)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / run_s
    else:
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "run_s": run_s,
            "tick_us": run_s / info["ticks"] * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    env["loadavg_after"] = list(os.getloadavg())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{'tiny  ' if args.tiny else ''}duration {duration:g} s  digest {info['digest']}")
    print(f"calls timed: {len(plain)} plain, {len(traced)} traced; "
          f"plain min {min(plain):.4f} s, max {max(plain):.4f} s; set-ups: {len(children)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if not args.trace:
        if info.get("scans"):
            print(f"  {'scan_ms':<44} {run_s * 1e3 / info['scans']:>14.6g} ms"
                  f"  ({info['scans']} committed scans per call)")
        ratio = checks.failed / checks.attempted if checks.attempted else 0.0
        print(f"  {'fail_ratio':<44} {ratio:>14.6g} ratio"
              f"  ({checks.failed} failed / {checks.attempted} attempted)")
    for note in checks.notes:
        print(f"  ops: {note}")
    for message in checks.errors:
        print(f"  CHECK FAILED: {message}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not checks.errors,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if checks.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
