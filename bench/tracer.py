"""Outside-in per-layer tracer for pairsat.

The tracer wraps public functions and methods of the package at run time;
nothing in src/ knows about it. Each wrapper opens a span around the real
call and keeps, per wrapped name, the number of calls and the self time:
span time minus the time covered by wrapped calls made inside it.

A function imported with `from module import name` is bound a second time
in the importing module, and the package calls it through that binding
(`angle_from_voltage` in scenarios, controller and analysis; `step_settle`
and `command_voltage` in scenarios). Installing therefore replaces every
binding of the original object in every loaded pairsat module, and
uninstalling puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import common

# metric prefix -> (module, attribute); "Class.method" wraps a method
TARGETS = {
    "scenarios.run": ("pairsat.scenarios", "SimulationEngine.run"),
    "controller.tick": ("pairsat.controller", "FlightController.tick"),
    "controller.laser_stable": ("pairsat.controller", "laser_stable"),
    "controller.bias_step": ("pairsat.controller", "ApdBiasLoop.step"),
    "controller.bench_rates": ("pairsat.controller", "bench_rates"),
    "physics.sample_counts": ("pairsat.physics", "sample_counts"),
    "physics.efficiency_factor": ("pairsat.physics", "efficiency_factor"),
    "lc_optics.angle_from_voltage": ("pairsat.lc_optics", "angle_from_voltage"),
    "lc_optics.step_settle": ("pairsat.lc_optics", "step_settle"),
    "lc_optics.command_voltage": ("pairsat.lc_optics", "command_voltage"),
    "thermal_power.step_thermal": ("pairsat.thermal_power", "step_thermal"),
    "thermal_power.total_power": ("pairsat.thermal_power", "total_power"),
    "telemetry.write_redundant": ("pairsat.telemetry", "write_redundant"),
    "telemetry.load_image": ("pairsat.telemetry", "load_image"),
    "telemetry.read_records": ("pairsat.telemetry", "read_records"),
    "analysis.scan_data_from_records": ("pairsat.analysis", "scan_data_from_records"),
    "analysis.fit_sinusoid": ("pairsat.analysis", "fit_sinusoid"),
    "analysis.analyze_flash": ("pairsat.analysis", "analyze_flash"),
}

RATIOS = ("telemetry.read_records.repaired_ratio", "analysis.fit_sinusoid.converged_ratio")


class Tracer:
    """Install with `install()`, run the code under test, `uninstall()`,
    then read `snapshot()`."""

    def __init__(self) -> None:
        # per name: [calls, self seconds]
        self.stats = {name: [0, 0.0] for name in TARGETS}
        self._stack = [0.0]  # time covered by child spans, one entry per open span
        self._undo: list[tuple[object, str, object]] = []
        self._flashes_read: list[tuple[object, int]] = []
        self._fits = [0, 0]  # converged, total

    def _wrap(self, name: str, fn):
        cell = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - children

        return span

    def _observe_read(self, fn):
        @functools.wraps(fn)
        def observed(flash, *args, **kwargs):
            records = fn(flash, *args, **kwargs)
            self._flashes_read.append((flash, len(records)))
            return records

        return observed

    def _observe_fit(self, fn):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            fit = fn(*args, **kwargs)
            self._fits[0] += bool(fit.converged)
            self._fits[1] += 1
            return fit

        return observed

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            if name == "telemetry.read_records":
                wrapped = self._observe_read(wrapped)
            elif name == "analysis.fit_sinusoid":
                wrapped = self._observe_fit(wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "pairsat" and not mod_name.startswith("pairsat."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything run while installed."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        records = sum(n for _, n in self._flashes_read)
        repaired = sum(common.repaired_slots(flash) for flash, _ in self._flashes_read)
        out["telemetry.read_records.repaired_ratio"] = repaired / records if records else 0.0
        converged, fits = self._fits
        out["analysis.fit_sinusoid.converged_ratio"] = converged / fits if fits else 0.0
        return out
