"""Engine runs shared across the test modules: a runner that logs every
hold and stretch the engine takes and counts the controller's decisions,
and the pinned scenarios, each simulated once per session through it; the
lab dip scenario also once through the reference engine."""

import dataclasses
import struct
from collections import Counter
from typing import NamedTuple

import pytest

from pairsat.controller import FlightController, Mode
from pairsat.scenarios import RunSummary, Scenario, SimulationEngine, make_scenario
from pairsat.telemetry import FlashImage
from reference_engine import reference_run


@dataclasses.dataclass(frozen=True)
class Hold:
    """One run of held ticks as advanced, after the decided tick before it."""

    first: int  # the decided tick; the held ticks are first + 1 .. end - 1
    end: int  # the first tick not advanced
    mode: Mode  # the mode held
    heater_on: bool  # the heater held on
    exit: str  # "band" (the temperature left it) or "end"
    on_commit: bool  # the decided tick commits a scan


# the exit that hands a tick back, by the mode the tick is in
EXITS = {Mode.LASER_STABILIZING: "stable", Mode.SCANNING: "unstable", Mode.STORING: "storing"}


@dataclasses.dataclass(frozen=True)
class OperatingStretch:
    """One operating stretch as taken, and the state it left."""

    first: int  # the tick it entered on
    end: int  # the first tick it did not advance
    reason: str  # "stable", "unstable", "storing" or "end"
    stabilizing: bool  # entered in LASER_STABILIZING
    after_commit: bool  # entered inside a commit record's period
    entered_railed: bool  # an active bias loop railed at entry
    railed: bool  # an active bias loop railed at exit
    wrote_block: bool
    heater_toggled: bool
    pending: bool  # a step command is due
    dwell_ms: int
    # a period it closed counted coincidences, as many as its signal
    # singles; as many as its idler singles
    coinc_at_signal_singles: bool
    coinc_at_idler_singles: bool
    band: tuple[float, float]  # the laser monitor's band at exit
    # the monitor's window held no sample more than a window older than
    # its newest at exit, as `LaserMonitor.add_sample` leaves it
    exit_trimmed: bool
    # the active loops entered as twins: one `ApdParams` object, and a
    # bias and integrator that are the same float bit for bit
    entered_twins: bool
    # each active loop entered with a bias in its `ApdParams` range, which
    # the stretch's bias step does not test
    entered_in_range: bool


def twins(loop_1, loop_2) -> bool:
    """Do two bias loops share one `ApdParams` object and hold a bit-equal
    bias and integrator (0.0 and -0.0 differ)?"""
    def bits(loop):
        return struct.pack("<2d", loop.bias, loop.integrator)
    return loop_1.params is loop_2.params and bits(loop_1) == bits(loop_2)


def in_range(loop) -> bool:
    return loop.params.bias_min_v <= loop.bias <= loop.params.bias_max_v


def window_trimmed(monitor) -> bool:
    samples = monitor.samples
    return not samples or samples[0][0] >= samples[-1][0] - monitor.window_s


class LoggedRun(NamedTuple):
    flash: FlashImage
    summary: RunSummary
    holds: list[Hold]
    operating: list[OperatingStretch]
    # `FlightController.decide` calls by the mode the controller was in:
    # the ticks the per-tick path ran
    decisions: Counter
    scenario: Scenario


def run_logged(scenario, prepare=None) -> LoggedRun:
    """Run the scenario on the engine, `prepare` applied to its controller
    first; log each hold and operating stretch the run takes, and count the
    controller's decisions by mode."""
    holds, operating, decisions = [], [], Counter()
    advance = SimulationEngine._advance
    operating_stretch = SimulationEngine._operating_stretch
    decide = FlightController.decide

    def logged_advance(self, k, cmd, ext_temp):
        ctrl = self.ctrl
        end = advance(self, k, cmd, ext_temp)
        if end > k + 1:
            how = "end" if end == self.n_ticks else "band"
            holds.append(Hold(k, end, ctrl.mode, ctrl.heater_watts > 0, how, cmd.commit_scan))
        return end

    def logged_operating(self, k, ext_temp):
        ctrl = self.ctrl
        stabilizing = ctrl.mode is Mode.LASER_STABILIZING
        after_commit = self._commit_ctx is not None
        written, watts, rows = self.flash.cursor, ctrl.heater_watts, len(self._rows)
        entered_railed = any(ctrl.bias_loops[ch].railed for ch in ctrl.active_channels())
        active = [ctrl.bias_loops[ch] for ch in ctrl.active_channels()]
        entered_twins, entered_in_range = twins(*active), all(map(in_range, active))
        end = operating_stretch(self, k, ext_temp)
        # the periods it closed into the pending block, those before a block
        # write among them only if it wrote none
        closed = self._rows[rows:] if self.flash.cursor == written else self._rows
        reason = "end" if end == self.n_ticks else EXITS[ctrl.mode]
        railed = any(ctrl.bias_loops[ch].railed for ch in ctrl.active_channels())
        operating.append(OperatingStretch(
            k, end, reason, stabilizing, after_commit, entered_railed, railed,
            self.flash.cursor > written, ctrl.heater_watts != watts,
            ctrl.pending_command, ctrl.dwell_remaining_ms,
            # a pending row's coincidences and its signal, then idler, singles
            any(0 < row[7] == row[5] for row in closed),
            any(0 < row[7] == row[6] for row in closed), ctrl.monitor.band,
            window_trimmed(ctrl.monitor), entered_twins, entered_in_range))
        return end

    def counted_decide(self, sensors):
        decisions[self.mode.value] += 1
        return decide(self, sensors)

    engine = SimulationEngine(scenario)
    if prepare is not None:
        prepare(engine.ctrl)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimulationEngine, "_advance", logged_advance)
        mp.setattr(SimulationEngine, "_operating_stretch", logged_operating)
        mp.setattr(FlightController, "decide", counted_decide)
        flash, summary = engine.run()
    return LoggedRun(flash, summary, holds, operating, decisions, scenario)


@pytest.fixture(scope="session")
def engine_run():
    """`run_logged`, for tests that run scenarios of their own."""
    return run_logged


# The pinned runs: the acceptance gate's scenarios and the golden digests'.

@pytest.fixture(scope="session")
def lab_480s_run():
    return run_logged(make_scenario("lab", seed=1))


@pytest.fixture(scope="session")
def leo_cold_run():
    """Leo 3000 s heats throughout; the laser never turns on."""
    return run_logged(make_scenario("leo", duration_s=3000.0, seed=5))


@pytest.fixture(scope="session")
def leo_run():
    return run_logged(make_scenario("leo", duration_s=4500.0, seed=3))


@pytest.fixture(scope="session")
def leo_wrapped_run():
    """Leo 7500 s wraps the ring, and each heating hold in it starts on a
    scan's commit tick."""
    return run_logged(make_scenario("leo", duration_s=7500.0, seed=3))


@pytest.fixture(scope="session")
def balloon_run():
    return run_logged(make_scenario("balloon", seed=11))


@pytest.fixture(scope="session")
def lab_dip_run():
    """Lab 120 s, seed 7, with a 1 s laser dip by 20 % from 20 s, in the
    first scan: it aborts, and the retry burns a fresh scan id."""
    scenario = make_scenario("lab", duration_s=120.0, seed=7)
    scenario.laser_dips = [(20.0, 1.0, 0.2)]
    return run_logged(scenario)


@pytest.fixture(scope="session")
def lab_dip_reference(lab_dip_run):
    """The reference engine's run of `lab_dip_run`'s scenario."""
    return reference_run(lab_dip_run.scenario)
