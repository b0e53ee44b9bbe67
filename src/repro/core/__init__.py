"""SUIT core: the paper's contribution.

The trap mechanism for infrequent faultable instructions (section 4.1),
the operating strategies that decide between DVFS-curve switching and
emulation (section 4.3, Listing 1), thrashing prevention, the
event-based instruction-trace simulator of Fig 15 (section 6.2), and the
performance/power/efficiency accounting of section 6.3.

:class:`OperatingPoint` and :func:`evaluate` are the entry point for
one question: a point in, a :class:`SimResult` out.
"""

from repro.core.params import StrategyParams, DEFAULT_PARAMS_INTEL, DEFAULT_PARAMS_AMD
from repro.core.strategy import (
    SuitState,
    CpuControl,
    OperatingStrategy,
    FVStrategy,
    FrequencyStrategy,
    VoltageStrategy,
    EmulationStrategy,
    strategy_for,
)
from repro.core.metrics import SimResult, imul_latency_overhead, geomean_change, median_change
from repro.core.simulator import TraceEpisode, TraceSimulator, compile_episode
from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.multicore import merged_multicore_trace
from repro.core.estimates import emulation_estimate, nosimd_estimate
from repro.core.policy import AdaptiveStrategyPolicy, StrategyDecision, oracle_best
from repro.core.tiers import CurveTier, derive_tiers, choose_tier
from repro.core.scheduler import Task, plan_partition, plan_round_robin, evaluate_plan
from repro.core.percore import PerCorePlan, plan_per_core_offsets, per_core_gain
from repro.core.suit import OperatingPoint, SuitSystem, evaluate

__all__ = [
    "StrategyParams",
    "DEFAULT_PARAMS_INTEL",
    "DEFAULT_PARAMS_AMD",
    "SuitState",
    "CpuControl",
    "OperatingStrategy",
    "FVStrategy",
    "FrequencyStrategy",
    "VoltageStrategy",
    "EmulationStrategy",
    "strategy_for",
    "SimResult",
    "imul_latency_overhead",
    "geomean_change",
    "median_change",
    "TraceSimulator",
    "SweepConfig",
    "TraceEpisode",
    "compile_episode",
    "simulate_sweep",
    "merged_multicore_trace",
    "emulation_estimate",
    "nosimd_estimate",
    "SuitSystem",
    "OperatingPoint",
    "evaluate",
    "AdaptiveStrategyPolicy",
    "StrategyDecision",
    "oracle_best",
    "CurveTier",
    "derive_tiers",
    "choose_tier",
    "Task",
    "plan_partition",
    "plan_round_robin",
    "evaluate_plan",
    "PerCorePlan",
    "plan_per_core_offsets",
    "per_core_gain",
]
