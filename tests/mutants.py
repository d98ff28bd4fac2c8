"""Mutants of the engine's inlined copies, of the boundary series and the
hold's walk over it, of the laser monitor, of the power ledger and of the
ground's rate digits, and a runner that shows the tests kill each one.

    python tests/mutants.py

A mutant replaces one piece of text, which occurs once, in one source file,
and names the test that kills it. For each mutant the runner copies `src/`,
`tests/` and `pyproject.toml` to a temporary directory, applies the mutant
there and runs the tests of `test_controller.py`, `test_scenarios.py`,
`test_acceptance.py` and `test_analysis.py` that `-k <killer>` selects,
with `-x`; the mutant is killed when one of them fails, and the runner
prints the first that did. It exits 1 when a mutant survives its named
test, when the name selects no test, or when a mutant no longer applies;
a mutant that no longer applies is not run.

The engine's speed comes from inlined copies of the controller and the
device models, and the reference engine (`reference_engine.py`) keeps those
copies honest. It shares `LaserMonitor` with the engine, so a wrong band
certificate is killed only by the tests of the certificate's proof.
`EQUIVALENT` lists mutants that change the output of no tested run, with
the reason; they are only checked to apply. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the files the killers are selected from
TEST_FILES = ["tests/test_controller.py", "tests/test_scenarios.py", "tests/test_acceptance.py",
              "tests/test_analysis.py"]
SCENARIOS = "src/pairsat/scenarios.py"
CONTROLLER = "src/pairsat/controller.py"
THERMAL_POWER = "src/pairsat/thermal_power.py"
ANALYSIS = "src/pairsat/analysis.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    # the test that kills it, as a `pytest -k` expression: part of its pytest
    # id. For an equivalent mutant, the reason it cannot be killed
    killer: str


MUTANTS = [
    # the operating stretch no longer notes a power outside the band, so
    # a dip reads certified
    Mutant("stretch-forgets-outside-power", SCENARIOS,
           "                    out_t = t_s\n", "                    pass\n",
           "test_laser_dip_aborts_and_retries"),
    # the stretch certifies a window whose oldest power lies outside the band
    Mutant("stretch-certifies-oldest-outside", SCENARIOS,
           "if out_t < oldest:", "if out_t <= oldest:", "stabilizing-after-commit"),
    # so does `laser_stable`, which the per-tick path and the reference call;
    # the `stabilizing-after-commit` case kills it too, should the random
    # search of the median property test miss
    Mutant("monitor-certifies-oldest-outside", CONTROLLER,
           "if monitor.outside_t < samples[0][0]", "if monitor.outside_t <= samples[0][0]",
           "test_laser_stable_matches_median_reference"),
    # a threshold of -5e-324 times a small lo rounds to -0.0, and a
    # zero-width band would certify a window the median rule reads unstable
    Mutant("certificate-without-threshold-sign", CONTROLLER,
           " and threshold >= 0.0\n", "\n", "test_band_certifies_rejects"),
    # no band certifies, so every full window takes the median: the output
    # holds, but the lab run is about a fifth slower
    Mutant("band-too-wide-to-certify", CONTROLLER,
           "min(threshold, 1.0) / 8.0 * median", "min(threshold, 1.0) / 2.0 * median",
           "test_band_around_certifies"),
    # the twin test looks at the parameters only: an idler loop that shares
    # the signal loop's APD takes its state, whatever its own
    Mutant("stretch-twin-ignores-state", SCENARIOS,
           "twin = p1 is p2 and _same_float(b1, b2) and _same_float(i1, loop_2.integrator)",
           "twin = p1 is p2",
           "twin-params-unlike-state"),
    # a stretch that puts the window's trim off leaves it untrimmed: no
    # tested run reads such a window before the next stretch trims it, so
    # only the check of the exit state kills it
    Mutant("stretch-skips-exit-trim", SCENARIOS,
           "            if samples:  # the trims put off", "            if False:  # the trims put off",
           "exit_trimmed"),
    # the warm-up puts the trim off too, and with it the fullness test that
    # begins a scan: a window whose powers all lie in the band never reads
    # full, and no scan begins
    Mutant("stretch-skips-window-while-stabilizing", SCENARIOS,
           "if out_t >= oldest or not scanning:", "if out_t >= oldest:",
           "stabilizing-after-commit"),
    # a railed idler loop no longer flags its records
    Mutant("railed-flag-from-signal-loop-only", SCENARIOS,
           "if railed_1 or railed_2:", "if railed_1:", "idler-bias-rail"),
    # a signal loop at its floor no longer reads railed
    Mutant("floor-rail-unflagged", SCENARIOS,
           "railed_1 = b1 <= rail_lo_1 or b1 >= rail_hi_1", "railed_1 = b1 >= rail_hi_1",
           "bias-min-rail"),
    # an unlike idler loop no longer steps in the stretch
    Mutant("unlike-idler-loop-unstepped", SCENARIOS,
           "b2 = loop_2.step(temp)", "b2 = loop_2.bias", "unlike-pair-loops"),
    # an unlike idler loop counts on the signal loop's APD: the same APD in
    # every other case, so only a pair that differs in every field tells
    # them apart
    Mutant("idler-efficiency-on-signal-curve", SCENARIOS,
           "efficiency_factor(p2, b2, temp)", "efficiency_factor(p1, b2, temp)",
           "unlike-pair-loops"),
    # a hold that ends after exactly one temperature-only period drops its row
    Mutant("one-held-period-dropped", SCENARIOS,
           "        if held > 0:\n", "        if held > 1:\n", "one-held-period"),
    # the coincidences are no longer clamped by the idler singles, or by
    # the signal singles
    Mutant("coinc-clamp-without-idler", SCENARIOS,
           "min(c, n1, n2)", "min(c, n1)", "coinc-clamped-by-idler"),
    Mutant("coinc-clamp-without-signal", SCENARIOS,
           "min(c, n1, n2)", "min(c, n2)", "coinc-clamped-by-signal"),
    # the package extremes leave out the last step, the coldest of a package
    # that cools throughout
    Mutant("package-extremes-without-last-step", SCENARIOS,
           "min(temps), max(temps)", "min(temps[:-1]), max(temps[:-1])", "package-node"),
    # the housing meets the package temperature of the tick after
    Mutant("boundary-series-a-tick-late", SCENARIOS,
           "memoryview(temps[:-1])", "memoryview(temps[1:])", "package-node"),
    # a hold reads its period starts one tick early
    Mutant("hold-period-phase-off-by-one", SCENARIOS,
           "k % PERIOD_TICKS", "(k + 1) % PERIOD_TICKS", "heating-after-storing"),
    # a hold that reaches its end on a period's first tick closes that
    # period, and the tick loop closes it again: one record too many
    Mutant("hold-closes-a-period-at-run-end", SCENARIOS,
           "if not start or k == end:", "if not start:", "heating-after-storing"),
    # the ledger sums the other laser state's modules: the laser-on draw
    # reads 0.3 W, and a heating tick 3.0 W over the budget, which stops the
    # leo run of criterion 06 with a BudgetError
    Mutant("ledger-sums-the-other-module-set", THERMAL_POWER,
           "modules = OPERATING_MODULES if laser_on else IDLE_MODULES\n    total",
           "modules = IDLE_MODULES if laser_on else OPERATING_MODULES\n    total",
           "test_criterion_06_power_ledger"),
    # the rate digits round a tie half up: 0.0625 reads 0.063, where `%`
    # writes 0.062
    Mutant("rate-digits-round-half-up", ANALYSIS,
           "(rest > half)", "(rest >= half)", "test_rate_text_is_exact"),
    # the sign comes from v < 0, so -0.0 reads 0.000, where `%` writes -0.000
    Mutant("rate-sign-without-signbit", ANALYSIS,
           "np.signbit(values)", "values < 0", "test_rate_text_is_exact"),
]

EQUIVALENT = [
    Mutant("recentre-on-unstable-reading", CONTROLLER,
           "    if stable:\n        monitor.band", "    if True:\n        monitor.band",
           "any band that certifies is sound; only which readings take the median changes"),
    Mutant("heater-on-at-20-c", SCENARIOS,
           "if temp < HEATER_ON_BELOW_C:", "if temp <= HEATER_ON_BELOW_C:",
           "no tested run puts the housing at exactly 20.0 C on a laser-on tick"),
    Mutant("period-context-from-last-counting-tick", SCENARIOS,
           "                    if count_ctx is None:\n                        count_ctx =",
           "                    if True:\n                        count_ctx =",
           "no step changes inside a counting period, so its last counting tick's "
           "context equals its first's"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Apply the mutant to the tree at `root`; raise if its text does not
    occur exactly once."""
    path = root / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def first_failure(output: str) -> str | None:
    """The id of the first failing test in pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return None


def run(mutant: Mutant) -> bool:
    """Run the tests its killer selects on a copy of the tree with the
    mutant applied; True when one of them fails."""
    with tempfile.TemporaryDirectory(prefix="pairsat-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", root / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-k", mutant.killer, *TEST_FILES],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
    killer = first_failure(proc.stdout)
    if proc.returncode == 0:
        print(f"SURVIVED {mutant.name}: {mutant.killer} passes ({elapsed:.0f} s)")
        return False
    if proc.returncode == 5:
        print(f"ERROR    {mutant.name}: -k {mutant.killer!r} selects no test")
        return False
    if proc.returncode != 1 or killer is None:  # a collection or usage error kills nothing
        print(f"ERROR    {mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
        return False
    print(f"killed   {mutant.name} by {killer} ({elapsed:.0f} s)")
    return True


def main() -> int:
    stale = set()
    with tempfile.TemporaryDirectory() as tmp:  # every mutant still applies
        root = Path(tmp)
        for mutant in MUTANTS + EQUIVALENT:
            (root / mutant.file).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / mutant.file, root / mutant.file)
            try:
                apply(mutant, root)
            except ValueError as exc:
                print(f"STALE    {exc}")
                stale.add(mutant.name)
    ok = not stale
    for mutant in EQUIVALENT:
        if mutant.name not in stale:
            print(f"equal    {mutant.name}: {mutant.killer}")
    for mutant in MUTANTS:
        if mutant.name not in stale:
            ok = run(mutant) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
