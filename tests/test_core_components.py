"""Unit tests for SUIT core components: params, thrashing, metrics."""

import numpy as np
import pytest

from repro.core.metrics import (
    SimResult,
    geomean_change,
    imul_latency_overhead,
    median_change,
)
from repro.core.params import (
    DEFAULT_PARAMS_AMD,
    DEFAULT_PARAMS_INTEL,
    StrategyParams,
    default_params_for,
)
from repro.core.simulator import TraceSimulator
from repro.core.strategy import FrequencyStrategy
from repro.hardware.models import cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.workloads.trace import FaultableTrace
from repro.workloads.spec import spec_profile


class TestStrategyParams:
    def test_table7_intel_values(self):
        p = DEFAULT_PARAMS_INTEL
        assert p.deadline_s == pytest.approx(30e-6)
        assert p.thrash_timespan_s == pytest.approx(450e-6)
        assert p.thrash_exception_count == 3
        assert p.thrash_deadline_factor == 14.0

    def test_table7_amd_values(self):
        p = DEFAULT_PARAMS_AMD
        assert p.deadline_s == pytest.approx(700e-6)
        assert p.thrash_timespan_s == pytest.approx(14e-3)
        assert p.thrash_exception_count == 4
        assert p.thrash_deadline_factor == 9.0

    def test_scaled_deadline(self):
        p = DEFAULT_PARAMS_INTEL
        assert p.scaled_deadline(False) == pytest.approx(30e-6)
        assert p.scaled_deadline(True) == pytest.approx(30e-6 * 14)

    def test_vendor_lookup(self):
        assert default_params_for("intel") is DEFAULT_PARAMS_INTEL
        assert default_params_for("amd") is DEFAULT_PARAMS_AMD
        with pytest.raises(ValueError):
            default_params_for("via")

    def test_validation(self):
        with pytest.raises(ValueError):
            StrategyParams(deadline_s=0.0)
        with pytest.raises(ValueError):
            StrategyParams(thrash_exception_count=0)
        with pytest.raises(ValueError):
            StrategyParams(thrash_deadline_factor=0.5)


class _WindowLoggingStrategy(FrequencyStrategy):
    """The ``f`` strategy, logging the #DO count its thrashing check
    sees on every trap."""

    def __init__(self, params):
        super().__init__(params)
        self.counts = []

    def on_disabled_instruction(self, cpu):
        self.counts.append(
            cpu.exception_count_in_timespan(self.params.thrash_timespan_s))
        super().on_disabled_instruction(cpu)


class TestThrashWindow:
    """The simulator's sliding #DO window (p_ts = 450 us, p_ec = 3 on
    CPU C), driven by eight evenly spaced faultable events."""

    def _run(self, spacing_s):
        cpu = cpu_c_xeon_4208()
        step = int(spacing_s * 1.5 * cpu.nominal_frequency)
        indices = np.arange(1, 9) * step
        trace = FaultableTrace(
            name="thrash", n_instructions=int(indices[-1]) + step, ipc=1.5,
            indices=indices, opcodes=np.zeros(8, np.uint8),
            opcode_table=(Opcode.VOR,))
        strategy = _WindowLoggingStrategy(default_params_for(cpu.vendor))
        result = TraceSimulator(cpu, spec_profile("557.xz"), trace,
                                strategy, -0.097).run()
        return strategy.counts, result

    def test_counts_within_window(self):
        # 60 us apart: each gap outlasts the 30 us deadline, so every
        # event traps until the window holds p_ec of them.
        counts, _ = self._run(60e-6)
        assert counts == [1, 2, 3]

    def test_evicts_old_entries(self):
        # 300 us apart: a 450 us window never holds more than two.
        counts, result = self._run(300e-6)
        assert counts == [1] + [2] * 7
        assert result.n_thrash_stretches == 0

    def test_detects_thrashing_at_threshold(self):
        # The third trap within p_ts stretches the deadline, which then
        # spans the remaining gaps: no further traps.
        _, result = self._run(60e-6)
        assert result.n_thrash_stretches == 1
        assert result.n_exceptions == 3


class TestImulOverhead:
    def test_x264_is_worst(self):
        x264 = imul_latency_overhead(spec_profile("525.x264"))
        others = [imul_latency_overhead(p) for p in
                  (spec_profile("502.gcc"), spec_profile("557.xz"))]
        assert x264 > 5 * max(others)
        assert x264 == pytest.approx(0.016, abs=0.004)

    def test_average_is_tiny(self):
        gcc = imul_latency_overhead(spec_profile("502.gcc"))
        assert gcc < 0.001

    def test_scales_with_extra_cycles(self):
        p = spec_profile("525.x264")
        assert imul_latency_overhead(p, 2) == pytest.approx(
            2 * imul_latency_overhead(p, 1))
        assert imul_latency_overhead(p, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            imul_latency_overhead(spec_profile("502.gcc"), -1)


class TestSimResultMetrics:
    def _result(self, duration, baseline, energy):
        return SimResult(
            workload="w", cpu_name="c", strategy="fV", voltage_offset=-0.097,
            duration_s=duration, baseline_duration_s=baseline,
            energy_rel=energy, state_time={"E": duration * 0.8})

    def test_perf_change(self):
        r = self._result(duration=0.9, baseline=1.0, energy=0.9)
        assert r.perf_change == pytest.approx(1 / 0.9 - 1)

    def test_power_change(self):
        r = self._result(duration=1.0, baseline=1.0, energy=0.85)
        assert r.power_change == pytest.approx(-0.15)

    def test_efficiency_definition(self):
        # Paper example: half the time at half the power -> +300 %.
        r = self._result(duration=0.5, baseline=1.0, energy=0.25)
        assert r.efficiency_change == pytest.approx(3.0)

    def test_occupancy(self):
        r = self._result(1.0, 1.0, 1.0)
        assert r.efficient_occupancy == pytest.approx(0.8)


class TestAggregates:
    def test_geomean_of_ratios(self):
        # ratios 1.1 and 0.95: geomean sqrt(1.045) - 1
        gm = geomean_change([0.10, -0.05])
        assert gm == pytest.approx((1.10 * 0.95) ** 0.5 - 1)

    def test_geomean_identity(self):
        assert geomean_change([0.0, 0.0]) == pytest.approx(0.0)

    def test_geomean_rejects_impossible(self):
        with pytest.raises(ValueError):
            geomean_change([-1.0])
        with pytest.raises(ValueError):
            geomean_change([])

    def test_median(self):
        assert median_change([0.1, -0.2, 0.05]) == pytest.approx(0.05)
        assert median_change([0.1, 0.2]) == pytest.approx(0.15)
