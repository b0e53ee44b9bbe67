"""Behavioural tests of the event-based trace simulator."""

import numpy as np
import pytest

from repro.core.params import DEFAULT_PARAMS_INTEL, StrategyParams
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.isa.opcodes import Opcode
from repro.workloads.generator import single_burst_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace


def _profile(name="sim-test", n=50_000_000, ipc=1.5):
    return WorkloadProfile(
        name=name, suite="SPECint", n_instructions=n, ipc=ipc,
        efficient_occupancy=0.5, n_episodes=1, dense_gap=1000,
        imul_density=0.0, opcode_mix={Opcode.VOR: 1.0})


def _trace(indices, name="sim-test", n=50_000_000, ipc=1.5):
    indices = np.asarray(indices, dtype=np.int64)
    return FaultableTrace(
        name=name, n_instructions=n, ipc=ipc, indices=indices,
        opcodes=np.zeros(indices.size, dtype=np.uint8),
        opcode_table=(Opcode.VOR,))


def _run(cpu, trace, strategy_name="fV", offset=-0.097, params=None,
         timeline=False, harden=True, profile=None):
    params = params or DEFAULT_PARAMS_INTEL
    sim = TraceSimulator(
        cpu=cpu, profile=profile or _profile(trace.name, trace.n_instructions,
                                             trace.ipc),
        trace=trace, strategy=strategy_for(strategy_name, params),
        voltage_offset=offset, seed=0, record_timeline=timeline,
        imul_extra_cycles=int(harden))
    return sim.run()


class TestEmptyTrace:
    def test_runs_entirely_on_efficient_curve(self, cpu_c):
        result = _run(cpu_c, _trace([]), harden=False)
        assert result.n_exceptions == 0
        assert result.efficient_occupancy == pytest.approx(1.0)
        # E is faster than baseline (undervolting boost).
        assert result.perf_change > 0
        assert result.power_change < -0.10

    def test_imul_tax_applied(self, cpu_c):
        profile = WorkloadProfile(
            name="imul-heavy", suite="SPECint", n_instructions=50_000_000,
            ipc=2.4, efficient_occupancy=0.5, n_episodes=1, dense_gap=1000,
            imul_density=0.0099, imul_chain_fraction=0.9,
            opcode_mix={Opcode.VOR: 1.0})
        trace = _trace([], name="imul-heavy", ipc=2.4)
        taxed = _run(cpu_c, trace, harden=True, profile=profile)
        untaxed = _run(cpu_c, trace, harden=False, profile=profile)
        assert taxed.duration_s > untaxed.duration_s
        ratio = taxed.duration_s / untaxed.duration_s
        assert ratio == pytest.approx(1.015, abs=0.01)


class TestSingleEvent:
    def test_one_trap_one_switch_cycle(self, cpu_c):
        result = _run(cpu_c, _trace([25_000_000]), timeline=True)
        assert result.n_exceptions == 1
        assert result.n_timer_fires == 1
        states = [s.split("/")[0] for _, s in result.timeline]
        assert "Cf" in states
        assert states[-1] == "E"

    def test_conservative_time_at_least_deadline(self, cpu_c):
        result = _run(cpu_c, _trace([25_000_000]))
        cons = result.state_time["Cf"] + result.state_time["CV"]
        assert cons >= DEFAULT_PARAMS_INTEL.deadline_s * 0.9

    def test_exception_cost_charged(self, cpu_c):
        result = _run(cpu_c, _trace([25_000_000]))
        assert result.state_time["stall"] > 0


class TestDeadlineMechanism:
    def test_events_within_deadline_do_not_retrap(self, cpu_c):
        # 10 events, 10k instructions apart (~2 us at CV): one trap only.
        base = 25_000_000
        events = [base + 10_000 * k for k in range(10)]
        result = _run(cpu_c, _trace(events))
        assert result.n_exceptions == 1
        assert result.n_timer_fires == 1

    def test_events_beyond_deadline_retrap(self, cpu_c):
        # Two events 25M instructions apart (~5.5 ms >> 30 us deadline).
        result = _run(cpu_c, _trace([10_000_000, 35_000_000]))
        assert result.n_exceptions == 2
        assert result.n_timer_fires == 2

    def test_longer_deadline_keeps_conservative(self, cpu_c):
        events = [10_000_000 + 500_000 * k for k in range(20)]  # ~110 us gaps
        short = _run(cpu_c, _trace(events),
                     params=StrategyParams(30e-6, 450e-6, 3, 14.0))
        long = _run(cpu_c, _trace(events),
                    params=StrategyParams(300e-6, 450e-6, 3, 14.0))
        assert long.n_exceptions < short.n_exceptions


class TestThrashingPrevention:
    def test_thrash_stretch_reduces_exceptions(self, cpu_c):
        # Gaps slightly above the deadline: the classic thrashing pattern.
        gap = 200_000  # ~44 us at CV, deadline is 30 us
        events = [5_000_000 + gap * k for k in range(60)]
        with_tp = _run(cpu_c, _trace(events),
                       params=StrategyParams(30e-6, 450e-6, 3, 14.0))
        without_tp = _run(cpu_c, _trace(events),
                          params=StrategyParams(30e-6, 450e-6, 1000, 14.0))
        assert with_tp.n_thrash_stretches > 0
        assert with_tp.n_exceptions < without_tp.n_exceptions


class TestFVStateSequence:
    def test_long_burst_reaches_cv(self, cpu_c):
        trace = single_burst_trace("sim-test", 50_000_000, 1.5,
                                   10_000_000, 15_000_000, 500.0,
                                   opcode=Opcode.VOR)
        result = _run(cpu_c, trace, timeline=True)
        states = [s.split("/")[0] for _, s in result.timeline]
        seq = [states[0]]
        for s in states[1:]:
            if s != seq[-1]:
                seq.append(s)
        assert seq == ["E", "Cf", "CV", "E"]

    def test_short_burst_cancels_voltage_change(self, cpu_c):
        # Burst shorter than the 335 us settle: never reaches CV.
        trace = single_burst_trace("sim-test", 50_000_000, 1.5,
                                   10_000_000, 300_000, 500.0,
                                   opcode=Opcode.VOR)
        result = _run(cpu_c, trace, timeline=True)
        states = {s.split("/")[0] for _, s in result.timeline}
        assert "CV" not in states
        assert "Cf" in states


class TestStrategiesCompared:
    def _events(self):
        return [5_000_000 + 2_000_000 * k for k in range(10)]

    def test_voltage_strategy_stalls_most(self, cpu_c):
        f = _run(cpu_c, _trace(self._events()), "f")
        v = _run(cpu_c, _trace(self._events()), "V")
        assert v.state_time["stall"] > f.state_time["stall"]

    def test_emulation_never_switches(self, cpu_c):
        result = _run(cpu_c, _trace(self._events()), "e")
        assert result.n_switches == 0
        assert result.state_time["Cf"] == 0.0
        assert result.state_time["CV"] == 0.0
        assert result.n_exceptions == 10

    def test_emulation_power_stays_efficient(self, cpu_c):
        result = _run(cpu_c, _trace(self._events()), "e")
        points = cpu_c.operating_points(-0.097)
        assert result.power_ratio == pytest.approx(points.power_e, rel=0.01)

    def test_voltage_strategy_needs_voltage_control(self, cpu_b):
        with pytest.raises(ValueError):
            _run(cpu_b, _trace(self._events()), "V")

    def test_frequency_strategy_works_on_amd(self, cpu_b):
        from repro.core.params import DEFAULT_PARAMS_AMD
        result = _run(cpu_b, _trace(self._events()), "f",
                      params=DEFAULT_PARAMS_AMD)
        assert result.n_exceptions >= 1
        assert result.duration_s > 0


class TestAccountingInvariants:
    def test_state_times_sum_to_duration(self, cpu_c, small_trace,
                                         small_profile):
        sim = TraceSimulator(cpu_c, small_profile, small_trace,
                             strategy_for("fV", DEFAULT_PARAMS_INTEL),
                             -0.097, seed=0)
        result = sim.run()
        assert sum(result.state_time.values()) == pytest.approx(
            result.duration_s, rel=1e-6)

    def test_power_between_extremes(self, cpu_c, small_trace, small_profile):
        sim = TraceSimulator(cpu_c, small_profile, small_trace,
                             strategy_for("fV", DEFAULT_PARAMS_INTEL),
                             -0.097, seed=0)
        result = sim.run()
        points = cpu_c.operating_points(-0.097)
        assert points.power_cf * 0.99 <= result.power_ratio <= 1.01

    def test_positive_offset_rejected(self, cpu_c, small_trace, small_profile):
        with pytest.raises(ValueError):
            TraceSimulator(cpu_c, small_profile, small_trace,
                           strategy_for("fV", DEFAULT_PARAMS_INTEL),
                           +0.05)

    def test_deterministic_given_seed(self, cpu_c, small_trace, small_profile):
        results = [
            TraceSimulator(cpu_c, small_profile, small_trace,
                           strategy_for("fV", DEFAULT_PARAMS_INTEL),
                           -0.097, seed=9).run()
            for _ in range(2)
        ]
        assert results[0].duration_s == results[1].duration_s
        assert results[0].energy_rel == results[1].energy_rel
