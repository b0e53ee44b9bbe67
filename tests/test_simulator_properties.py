"""Property-based tests of the trace simulator's invariants.

Random small traces and parameters; for every run the physical
accounting must hold: time splits exactly across states, energy implies
a power between the Cf floor and the CV baseline, every trap fires a
deadline return, and the run is deterministic for a given seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import StrategyParams
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.hardware.models import cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

_CPU = cpu_c_xeon_4208()

_N = 20_000_000


def _make_trace(event_positions):
    indices = np.array(sorted(set(event_positions)), dtype=np.int64)
    return FaultableTrace(
        name="prop", n_instructions=_N, ipc=1.5, indices=indices,
        opcodes=np.zeros(indices.size, dtype=np.uint8),
        opcode_table=(Opcode.VOR,))


_PROFILE = WorkloadProfile(
    name="prop", suite="SPECint", n_instructions=_N, ipc=1.5,
    efficient_occupancy=0.5, n_episodes=1, dense_gap=1000,
    imul_density=0.0, opcode_mix={Opcode.VOR: 1.0})

events_strategy = st.lists(
    st.integers(min_value=0, max_value=_N - 1), min_size=0, max_size=40)

strategy_names = st.sampled_from(["fV", "f", "V", "e"])

deadlines = st.sampled_from([10e-6, 30e-6, 100e-6])


@settings(max_examples=40, deadline=None)
@given(events=events_strategy, strategy_name=strategy_names,
       deadline=deadlines)
def test_accounting_invariants(events, strategy_name, deadline):
    params = StrategyParams(deadline, 450e-6, 3, 14.0)
    sim = TraceSimulator(_CPU, _PROFILE, _make_trace(events),
                         strategy_for(strategy_name, params), -0.097,
                         seed=1, imul_extra_cycles=0)
    result = sim.run()

    # 1. Time closes: states + stall == duration.
    assert sum(result.state_time.values()) == pytest.approx(
        result.duration_s, rel=1e-9, abs=1e-12)

    # 2. Power bounded by the physical extremes.
    points = _CPU.operating_points(-0.097)
    lo = min(points.power_cf, points.power_e) - 1e-6
    assert lo <= result.power_ratio <= 1.0 + 1e-6

    # 3. Every event is consumed exactly once.
    assert result.n_exceptions <= len(set(events))

    # 4. Duration at least the best-case run time.
    best = _N / (1.5 * _CPU.nominal_frequency * points.speed_e)
    assert result.duration_s >= best * (1 - 1e-9)


@settings(max_examples=20, deadline=None)
@given(events=events_strategy)
def test_switching_strategies_fire_timer_per_conservative_visit(events):
    params = StrategyParams(30e-6, 450e-6, 3, 14.0)
    sim = TraceSimulator(_CPU, _PROFILE, _make_trace(events),
                         strategy_for("fV", params), -0.097, seed=1,
                         imul_extra_cycles=0)
    result = sim.run()
    # Each exception arms the deadline; the timer must eventually fire
    # once per trap (no lost returns), except a trailing episode that
    # may reach the end of the trace while still conservative.
    assert result.n_exceptions - result.n_timer_fires in (0, 1)


@settings(max_examples=15, deadline=None)
@given(events=events_strategy, seed=st.integers(min_value=0, max_value=2 ** 16))
def test_determinism(events, seed):
    params = StrategyParams(30e-6, 450e-6, 3, 14.0)
    runs = [
        TraceSimulator(_CPU, _PROFILE, _make_trace(events),
                       strategy_for("fV", params), -0.097, seed=seed,
                       imul_extra_cycles=0).run()
        for _ in range(2)
    ]
    assert runs[0].duration_s == runs[1].duration_s
    assert runs[0].energy_rel == runs[1].energy_rel
    assert runs[0].n_exceptions == runs[1].n_exceptions


@settings(max_examples=15, deadline=None)
@given(events=st.lists(st.integers(min_value=0, max_value=_N - 1),
                       min_size=1, max_size=30))
def test_emulation_strategy_consumes_all_events(events):
    params = StrategyParams(30e-6, 450e-6, 3, 14.0)
    trace = _make_trace(events)
    sim = TraceSimulator(_CPU, _PROFILE, trace,
                         strategy_for("e", params), -0.097, seed=1,
                         imul_extra_cycles=0)
    result = sim.run()
    assert result.n_exceptions == trace.n_events
    assert result.n_switches == 0


@settings(max_examples=15, deadline=None)
@given(offset=st.floats(min_value=-0.12, max_value=-0.02))
def test_deeper_undervolt_never_increases_power(offset):
    trace = _make_trace([5_000_000, 12_000_000])
    params = StrategyParams(30e-6, 450e-6, 3, 14.0)
    shallow = TraceSimulator(_CPU, _PROFILE, trace,
                             strategy_for("fV", params), -0.02, seed=1,
                             imul_extra_cycles=0).run()
    deep = TraceSimulator(_CPU, _PROFILE, trace,
                          strategy_for("fV", params), offset, seed=1,
                          imul_extra_cycles=0).run()
    assert deep.power_ratio <= shallow.power_ratio + 1e-9
