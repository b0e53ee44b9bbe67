"""Sweep semantics, and the block index every simulation runs on.

:func:`repro.core.batchsim.simulate_sweep` evaluates many configs over
one compiled trace, and :meth:`SuitSystem.run_profile` is its width-1
case.  These tests pin, with strict ``==`` comparisons (no approx):

* the block index end to end: over random traces (sparse events and
  dense bursts), strategies, deadlines, seeds, offsets and hardening, a
  run on the compiled episode returns exactly what a run whose
  bulk-consume stops come from a plain gap scan returns;
* synthesized workload traces through :func:`simulate_sweep` vs
  :meth:`SuitSystem.run_profile`;
* the sweep API contract: config-order results, the closed-form ``e``
  estimate, enclave rejection, core-count validation, and tracing that
  records events without changing a result or the evaluation path;
* the compiled episode: cached once per trace without a reference
  cycle, and :meth:`TraceEpisode.first_big_gap` equal to a naive scan
  over traces spanning many index blocks.

``tests/test_sim_regression.py`` pins the simulator's output itself.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.estimates import emulation_estimate
from repro.core.params import StrategyParams, default_params_for
from repro.core.simulator import TraceEpisode, TraceSimulator, compile_episode
from repro.core.strategy import strategy_for
from repro.core.suit import SuitSystem
from repro.hardware.models import cpu_b_ryzen_7700x, cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.obs.registry import get_registry
from repro.obs.tracer import TRACK_SIM, disable_tracing, enable_tracing
from repro.runtime.serialization import jsonify
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

_CPU = cpu_c_xeon_4208()

_N = 20_000_000

_PROFILE = WorkloadProfile(
    name="prop", suite="SPECint", n_instructions=_N, ipc=1.5,
    efficient_occupancy=0.5, n_episodes=1, dense_gap=1000,
    imul_density=0.05, opcode_mix={Opcode.VOR: 0.6, Opcode.VPCMP: 0.4})

#: A small synthetic profile whose generated trace has real burst
#: structure but synthesises in milliseconds.
_GEN_PROFILE = WorkloadProfile(
    name="gen", suite="SPECint", n_instructions=2_000_000, ipc=1.2,
    efficient_occupancy=0.4, n_episodes=3, dense_gap=400,
    imul_density=0.1, opcode_mix={Opcode.VOR: 0.5, Opcode.VPCMP: 0.5})


def assert_identical(got, want):
    """Bit-exact result comparison."""
    assert got.duration_s == want.duration_s
    assert got.energy_rel == want.energy_rel
    assert got.state_time == want.state_time
    assert got.baseline_duration_s == want.baseline_duration_s
    assert got.n_exceptions == want.n_exceptions
    assert got.n_switches == want.n_switches
    assert got.n_timer_fires == want.n_timer_fires
    assert got.n_thrash_stretches == want.n_thrash_stretches
    assert got.strategy == want.strategy
    assert got.voltage_offset == want.voltage_offset


def _make_trace(event_positions):
    indices = np.array(sorted(set(event_positions)), dtype=np.int64)
    opcodes = (indices % 2).astype(np.uint8)
    return FaultableTrace(
        name="prop", n_instructions=_N, ipc=1.5, indices=indices,
        opcodes=opcodes, opcode_table=(Opcode.VOR, Opcode.VPCMP))


class _ScanEpisode(TraceEpisode):
    """A compiled episode whose block index is bypassed: every
    bulk-consume stop comes from a plain left-to-right gap scan."""

    __slots__ = ()

    def first_big_gap(self, start, hi, threshold, buf):
        big = np.flatnonzero(self.gaps[start:hi] > threshold)
        return start + int(big[0]) if big.size else hi


def _indexed_and_scanned(cpu, trace, strategy, offset, seed, harden=True):
    """Run one config on the compiled episode, then again with a scan
    episode installed in the trace's episode cache."""
    results = []
    for episode in (compile_episode(trace), _ScanEpisode(trace)):
        trace._episode = episode
        results.append(TraceSimulator(cpu, _PROFILE, trace, strategy,
                                      offset, seed=seed,
                                      imul_extra_cycles=int(harden)).run())
    return results


# Sparse singles plus dense bursts: bursts drive the deadline-timer /
# thrashing machinery, singles drive the bulk consume.
_singles = st.lists(st.integers(min_value=0, max_value=_N - 1),
                    min_size=0, max_size=30)
_bursts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=_N - 2000),
              st.integers(min_value=2, max_value=300)),
    min_size=0, max_size=4)


@st.composite
def event_sets(draw):
    events = list(draw(_singles))
    for start, length in draw(_bursts):
        events.extend(range(start, start + length))
    return events


@settings(max_examples=60, deadline=None)
@given(events=event_sets(),
       strategy_name=st.sampled_from(["fV", "f", "V", "e"]),
       deadline=st.sampled_from([10e-6, 30e-6, 100e-6, 450e-6]),
       seed=st.integers(min_value=0, max_value=7),
       offset=st.sampled_from([-0.05, -0.097, -0.12]),
       harden=st.booleans())
def test_replay_matches_scalar(events, strategy_name, deadline, seed,
                               offset, harden):
    """Indexed bulk consumes replay exactly what a scalar gap scan
    gives, for every strategy (``e`` simulated, not estimated)."""
    params = StrategyParams(deadline, 450e-6, 3, 14.0)
    indexed, scanned = _indexed_and_scanned(
        _CPU, _make_trace(events), strategy_for(strategy_name, params),
        offset, seed, harden)
    assert_identical(indexed, scanned)


@settings(max_examples=20, deadline=None)
@given(events=event_sets(),
       seed=st.integers(min_value=0, max_value=3))
def test_replay_matches_scalar_without_voltage_rail(events, seed):
    """CPU B has no voltage control — the f strategy's frequency-only
    transitions must still replay exactly."""
    cpu = cpu_b_ryzen_7700x()
    indexed, scanned = _indexed_and_scanned(
        cpu, _make_trace(events),
        strategy_for("f", default_params_for(cpu.vendor)), -0.097, seed)
    assert_identical(indexed, scanned)


class TestSweepSemantics:
    """simulate_sweep == SuitSystem.run_profile, config by config."""

    @pytest.fixture(scope="class")
    def gen_trace(self):
        return generate_trace(_GEN_PROFILE, seed=0)

    @pytest.mark.parametrize("strategy", ["fV", "f", "V", "e"])
    def test_sweep_matches_run_profile(self, gen_trace, strategy):
        suit = SuitSystem.for_cpu("C", strategy_name=strategy,
                                  voltage_offset=-0.097, seed=0)
        suit.prime_trace(_GEN_PROFILE, gen_trace)
        reference = suit.run_profile(_GEN_PROFILE)
        [swept] = simulate_sweep(suit.cpu, _GEN_PROFILE, gen_trace, [
            SweepConfig(strategy=strategy, voltage_offset=-0.097, seed=0)],
            params=suit.params, n_cores=suit.n_cores)
        assert_identical(swept, reference)

    def test_results_come_back_in_config_order(self, gen_trace):
        configs = [SweepConfig(strategy=s, voltage_offset=off, seed=0)
                   for s in ("V", "fV", "e", "f")
                   for off in (-0.07, -0.097)]
        results = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace, configs)
        assert [(r.strategy, r.voltage_offset) for r in results] == \
            [(c.strategy, c.voltage_offset) for c in configs]

    def test_e_config_is_the_closed_form_estimate(self, gen_trace):
        [swept] = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                                 [SweepConfig(strategy="e")])
        estimate = emulation_estimate(_CPU, _GEN_PROFILE, gen_trace,
                                      -0.097)
        assert_identical(swept, estimate)

    def test_e_config_rejects_enclaves(self, gen_trace):
        enclave = WorkloadProfile(
            name="gen", suite="SPECint", n_instructions=2_000_000,
            ipc=1.2, efficient_occupancy=0.4, n_episodes=3,
            dense_gap=400, imul_density=0.1,
            opcode_mix={Opcode.VOR: 1.0}, in_enclave=True)
        with pytest.raises(ValueError, match="enclave"):
            simulate_sweep(_CPU, enclave, gen_trace,
                           [SweepConfig(strategy="e")])

    def test_tracing_changes_no_result_and_no_path(self, gen_trace):
        """An enabled tracer records sim-track events, yet the results
        and the evaluation path stay those of an untraced sweep."""
        configs = [SweepConfig(strategy=s, seed=seed)
                   for s in ("fV", "f", "V", "e") for seed in (0, 1)]
        paths = get_registry().counter("batchsim_configs_total",
                                       label_names=("path",))

        def sweep():
            before = paths.value(path="vector")
            results = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace, configs)
            return jsonify(results), paths.value(path="vector") - before

        plain, plain_vector = sweep()
        tracer = enable_tracing(capacity=200_000)
        try:
            traced, traced_vector = sweep()
        finally:
            disable_tracing()
        assert traced == plain
        assert traced_vector == plain_vector == 6
        names = {e.name for e in tracer.events() if e.pid == TRACK_SIM}
        assert {"#DO trap", "p-state change", "timer fire"} <= names

    def test_core_count_is_validated(self, gen_trace):
        with pytest.raises(ValueError):
            simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                           [SweepConfig()], n_cores=0)
        with pytest.raises(ValueError, match="cores"):
            simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                           [SweepConfig()],
                           n_cores=_CPU.topology.n_cores + 1)

    def test_multicore_sweep_matches_run_profile(self, gen_trace):
        suit = SuitSystem.for_cpu("C", strategy_name="fV",
                                  voltage_offset=-0.097, seed=0,
                                  n_cores=2)
        suit.prime_trace(_GEN_PROFILE, gen_trace)
        reference = suit.run_profile(_GEN_PROFILE)
        [swept] = simulate_sweep(suit.cpu, _GEN_PROFILE, gen_trace,
                                 [SweepConfig()], params=suit.params,
                                 n_cores=suit.n_cores)
        assert_identical(swept, reference)

    def test_episode_is_compiled_once_and_cached(self, gen_trace):
        episode = compile_episode(gen_trace)
        assert compile_episode(gen_trace) is episode
        simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                       [SweepConfig(seed=3)])
        assert gen_trace._episode is episode

    def test_compiled_trace_is_freed_without_the_cycle_collector(self):
        """The cached episode holds no reference back to its trace, so
        dropping the last reference frees the trace at once."""
        gc.disable()
        try:
            trace = generate_trace(_GEN_PROFILE, seed=0)
            compile_episode(trace)
            ref = weakref.ref(trace)
            del trace
            assert ref() is None
        finally:
            gc.enable()


def _blocks_trace(gaps):
    indices = np.cumsum(np.asarray(gaps, dtype=np.int64))
    return FaultableTrace(
        name="blocks",
        n_instructions=int(indices[-1]) + 1 if indices.size else 1,
        ipc=1.5, indices=indices, opcodes=np.zeros(indices.size, np.uint8),
        opcode_table=(Opcode.VOR,))


def _edge_trace(*long_at):
    """Three blocks of unit gaps, with long gaps at *long_at*."""
    gaps = np.ones(3 * 4096, dtype=np.int64)
    gaps[list(long_at)] = 10_000
    return _blocks_trace(gaps)


@st.composite
def multi_block_traces(draw):
    """Traces of up to ~53 k events, spanning up to 13 of the index's
    4,096-event blocks: short gaps, plus long gaps at a drawn density
    (zero included, so whole blocks can hold none) and at drawn
    positions, often on a block's first or last event."""
    n_events = (draw(st.integers(min_value=0, max_value=12)) * 4096
                + draw(st.integers(min_value=0, max_value=4095)))
    density = draw(st.sampled_from([0.0, 1e-3, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gaps = rng.integers(1, 300, size=n_events)
    long_gap = rng.random(n_events) < density
    gaps[long_gap] = rng.integers(1_000, 1_000_000, size=int(long_gap.sum()))
    edge = st.builds(lambda block, offset: block * 4096 + offset,
                     st.integers(min_value=0, max_value=n_events // 4096),
                     st.sampled_from([0, 1, 4094, 4095]))
    anywhere = st.integers(min_value=0, max_value=max(n_events - 1, 0))
    for j, gap in draw(st.lists(st.tuples(
            st.one_of(edge, anywhere),
            st.integers(min_value=1_000, max_value=1_000_000)),
            max_size=8)):
        if j < n_events:
            gaps[j] = gap
    return _blocks_trace(gaps)


class TestEpisodeIndex:
    """The block-maximum index must agree with a naive linear scan."""

    @settings(max_examples=80, deadline=None)
    @given(trace=multi_block_traces(),
           start=st.integers(min_value=0, max_value=60_000),
           hi_back=st.integers(min_value=0, max_value=60_000),
           # Below the short gaps, between short and long ones (only
           # long gaps count), or anywhere up to above every gap.
           threshold=st.one_of(
               st.integers(min_value=0, max_value=300),
               st.integers(min_value=300, max_value=999),
               st.integers(min_value=0, max_value=1_100_000)))
    @example(trace=_edge_trace(4095), start=0, hi_back=0, threshold=500)
    @example(trace=_edge_trace(4095), start=4095, hi_back=0, threshold=500)
    @example(trace=_edge_trace(4096), start=4096, hi_back=0, threshold=500)
    @example(trace=_edge_trace(8191, 8192), start=4097, hi_back=4095,
             threshold=500)
    def test_first_big_gap_equals_linear_scan(self, trace, start, hi_back,
                                              threshold):
        n = trace.n_events
        start = min(start, n)
        # Any stop bound up to n_events: a bulk consume passes the
        # pending change's horizon, not just the end of the events.
        hi = max(start, n - hi_back)
        buf = np.empty(4096, dtype=bool)
        got = compile_episode(trace).first_big_gap(start, hi, threshold, buf)
        gaps = trace.gaps()
        expect = hi
        for j in range(start, hi):
            if gaps[j] > threshold:
                expect = j
                break
        assert got == expect
