"""Edge-case and failure-injection tests for the trace simulator."""

import numpy as np
import pytest

from repro.core.params import DEFAULT_PARAMS_INTEL, StrategyParams
from repro.core.simulator import TraceSimulator
from repro.core.strategy import OperatingStrategy, SuitState, strategy_for
from repro.isa.opcodes import Opcode
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

_N = 10_000_000


def _profile():
    return WorkloadProfile(
        name="edge", suite="SPECint", n_instructions=_N, ipc=1.5,
        efficient_occupancy=0.5, n_episodes=1, dense_gap=100,
        imul_density=0.0, opcode_mix={Opcode.VOR: 1.0})


def _trace(indices):
    indices = np.asarray(indices, dtype=np.int64)
    return FaultableTrace(
        name="edge", n_instructions=_N, ipc=1.5, indices=indices,
        opcodes=np.zeros(indices.size, dtype=np.uint8),
        opcode_table=(Opcode.VOR,))


def _sim(cpu, trace, strategy=None, params=None):
    return TraceSimulator(
        cpu, _profile(), trace,
        strategy or strategy_for("fV", params or DEFAULT_PARAMS_INTEL),
        -0.097, seed=0, imul_extra_cycles=0)


class TestBoundaryEvents:
    def test_event_at_instruction_zero(self, cpu_c):
        result = _sim(cpu_c, _trace([0])).run()
        assert result.n_exceptions == 1
        assert result.duration_s > 0

    def test_event_at_last_instruction(self, cpu_c):
        result = _sim(cpu_c, _trace([_N - 1])).run()
        assert result.n_exceptions == 1
        # The run ends while still conservative: no timer return needed.
        assert result.n_timer_fires == 0

    def test_duplicate_positions(self, cpu_c):
        # Two faultable instructions at adjacent stream slots.
        result = _sim(cpu_c, _trace([500_000, 500_000, 500_001])).run()
        assert result.n_exceptions == 1  # one burst, one trap
        assert result.duration_s > 0

    def test_every_instruction_faultable_prefix(self, cpu_c):
        result = _sim(cpu_c, _trace(list(range(200)))).run()
        assert result.n_exceptions == 1
        cons = result.state_time["Cf"] + result.state_time["CV"]
        assert cons > 0


class TestExtremeParameters:
    def test_tiny_deadline_thrashes_then_recovers(self, cpu_c):
        params = StrategyParams(1e-6, 450e-6, 3, 14.0)
        events = [1_000_000 * k for k in range(1, 9)]
        result = _sim(cpu_c, _trace(events), params=params).run()
        assert result.n_exceptions == len(events)

    def test_huge_deadline_pins_conservative(self, cpu_c):
        params = StrategyParams(10.0, 450e-6, 3, 14.0)
        events = [1_000_000, 5_000_000]
        result = _sim(cpu_c, _trace(events), params=params).run()
        assert result.n_exceptions == 1
        assert result.efficient_occupancy < 0.5

    def test_offset_beyond_curve_floor_rejected(self, cpu_c):
        # An offset that would push low-frequency anchors negative dies
        # loudly in the DVFS layer, not silently.
        with pytest.raises(ValueError):
            _sim_offset = TraceSimulator(
                cpu_c, _profile(), _trace([100]),
                strategy_for("fV", DEFAULT_PARAMS_INTEL), -0.75, seed=0)
            _sim_offset.run()


class BrokenStrategy(OperatingStrategy):
    """A strategy that forgets to re-enable or emulate: the instruction
    can never retire.  The simulator must fail loudly, not hang."""

    name = "broken"

    def on_disabled_instruction(self, cpu):
        cpu.change_pstate_wait(SuitState.CF)
        # BUG: neither set_instructions_disabled(False) nor emulate.


class TestFailureInjection:
    def test_broken_strategy_detected(self, cpu_c):
        sim = _sim(cpu_c, _trace([1_000_000]),
                   strategy=BrokenStrategy(DEFAULT_PARAMS_INTEL))
        with pytest.raises(RuntimeError, match="disabled"):
            sim.run()

    def test_wrong_thrash_window_query_detected(self, cpu_c):
        class WrongWindow(OperatingStrategy):
            name = "wrong"

            def on_disabled_instruction(self, cpu):
                cpu.exception_count_in_timespan(123e-6)  # not p_ts

        sim = _sim(cpu_c, _trace([1_000_000]),
                   strategy=WrongWindow(DEFAULT_PARAMS_INTEL))
        with pytest.raises(ValueError, match="p_ts"):
            sim.run()


class TestTimelineRecording:
    def test_timeline_capped(self, cpu_c):
        from repro.core import simulator as sim_module

        events = [100_000 * k for k in range(1, 60)]
        sim = TraceSimulator(cpu_c, _profile(), _trace(events),
                             strategy_for("fV", DEFAULT_PARAMS_INTEL),
                             -0.097, seed=0, record_timeline=True)
        result = sim.run()
        assert result.timeline is not None
        assert len(result.timeline) <= sim_module._TIMELINE_CAP

    def test_no_timeline_by_default(self, cpu_c):
        result = _sim(cpu_c, _trace([100])).run()
        assert result.timeline is None
