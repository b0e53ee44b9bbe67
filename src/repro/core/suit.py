"""High-level SUIT entry points: operating points and the system facade.

An :class:`OperatingPoint` names one question (CPU, workload,
strategy, offset, seed, core count, deadline and IMUL depth) and
:func:`evaluate` answers a list of them, one ``simulate_sweep`` per
group of points that share a trace and a deadline.  The service, the
DSE, the differential oracle and ``repro simulate`` all go through it.
:class:`SuitSystem` configures a CPU with full strategy parameters for
experiments that need more than a point.

Example:
    >>> from repro.core import OperatingPoint, evaluate
    >>> [result] = evaluate([OperatingPoint("C", "557.xz", strategy="fV",
    ...                                     voltage_offset=-0.097)])
    >>> result.efficiency_change > 0
    True
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.estimates import nosimd_estimate
from repro.core.metrics import SimResult, geomean_change, median_change
from repro.core.params import StrategyParams, default_params_for
from repro.core.simulator import TraceSimulator
from repro.core.strategy import OperatingStrategy, strategy_for
from repro.hardware.cpu import CpuModel
from repro.hardware.models import ALL_CPU_FACTORIES
from repro.workloads.profile import WorkloadProfile
from repro.workloads.resolve import resolve_profile
from repro.workloads.tracecache import cached_trace
from repro.workloads.trace import FaultableTrace

#: Operating strategies, by their Table 6 short names.
KNOWN_STRATEGIES = ("fV", "f", "V", "e")

#: The strategies that raise the voltage, and so need a voltage rail.
VOLTAGE_STRATEGIES = ("fV", "V")


def _is_real(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@functools.lru_cache(maxsize=None)
def _cpu_limits(name: str) -> Tuple[int, bool]:
    """``(core count, has a voltage rail)`` of CPU *name*, read once
    from its model so that validation builds none."""
    cpu = ALL_CPU_FACTORIES[name]()
    return cpu.topology.n_cores, cpu.transitions.voltage is not None


@dataclass(frozen=True)
class OperatingPoint:
    """One SUIT operating point: everything that decides an answer.

    Attributes:
        cpu: CPU short name ("A", "B", "C", "i5").
        workload: workload name or unambiguous fragment, resolved by
            :func:`~repro.workloads.resolve.resolve_profile`.
        strategy: "fV", "f", "V" or "e".
        voltage_offset: efficient-curve offset in volts (negative).
        seed: RNG seed for trace synthesis and sampled delays.
        n_cores: active cores sharing the workload.
        deadline_us: the deadline ``p_dl`` in microseconds; ``None``
            keeps the vendor's Table 7 default.
        imul_extra_cycles: IMUL hardening depth over the unhardened
            3-cycle multiplier (section 6.1); 1 is the paper's.  The
            ``e`` estimate ignores it and always carries depth 1.
    """

    cpu: str
    workload: str
    strategy: str = "fV"
    voltage_offset: float = -0.097
    seed: int = 0
    n_cores: int = 1
    deadline_us: Optional[float] = None
    imul_extra_cycles: int = 1

    def validate(self) -> None:
        """Raise :class:`ValueError` unless the simulator accepts this
        point.  The workload is resolved only when evaluated."""
        if not isinstance(self.cpu, str) or self.cpu not in ALL_CPU_FACTORIES:
            raise ValueError(f"unknown CPU {self.cpu!r}; "
                             f"know {sorted(ALL_CPU_FACTORIES)}")
        if not self.workload or not isinstance(self.workload, str):
            raise ValueError("workload must be a non-empty string")
        if self.strategy not in KNOWN_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"know {', '.join(KNOWN_STRATEGIES)}")
        cores, has_rail = _cpu_limits(self.cpu)
        if self.strategy in VOLTAGE_STRATEGIES and not has_rail:
            raise ValueError(f"CPU {self.cpu} has no voltage control; "
                             "use the f or e strategy")
        if not _is_real(self.voltage_offset) or self.voltage_offset >= 0:
            raise ValueError(
                "voltage_offset is the efficient-curve offset in volts "
                "and must be negative and finite")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not isinstance(self.n_cores, int) or self.n_cores < 1:
            raise ValueError("n_cores must be a positive integer")
        if self.n_cores > cores:
            raise ValueError(f"CPU {self.cpu} has only {cores} cores")
        if self.deadline_us is not None and (
                not _is_real(self.deadline_us) or self.deadline_us <= 0):
            raise ValueError("deadline_us must be positive and finite "
                             "when set")
        if (not isinstance(self.imul_extra_cycles, int)
                or isinstance(self.imul_extra_cycles, bool)
                or self.imul_extra_cycles < 0):
            raise ValueError("imul_extra_cycles must be a non-negative "
                             "integer")

    def sweep_key(self) -> tuple:
        """What points must share to ride one ``simulate_sweep``: the
        trace (cpu, workload, seed, n_cores) and the deadline."""
        return (self.cpu, self.workload, int(self.seed), int(self.n_cores),
                None if self.deadline_us is None else float(self.deadline_us))


def evaluate(points: Sequence[OperatingPoint]) -> List[SimResult]:
    """Simulate operating points; results come back in input order.

    Every point is validated first.  Points sharing a
    :meth:`~OperatingPoint.sweep_key` run as one
    :func:`~repro.core.batchsim.simulate_sweep` over their cached trace
    and compiled episode; a point's result does not depend on its
    group, so it equals a width-1 evaluation bit for bit.
    """
    points = list(points)
    for point in points:
        point.validate()
    groups: Dict[tuple, List[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(point.sweep_key(), []).append(i)
    results: List[Optional[SimResult]] = [None] * len(points)
    for (cpu_name, workload, seed, n_cores, deadline_us), members \
            in groups.items():
        cpu = ALL_CPU_FACTORIES[cpu_name]()
        params = default_params_for(cpu.vendor)
        if deadline_us is not None:
            params = replace(params, deadline_s=deadline_us * 1e-6)
        profile = resolve_profile(workload)
        configs = [SweepConfig(strategy=points[i].strategy,
                               voltage_offset=float(points[i].voltage_offset),
                               seed=seed,
                               imul_extra_cycles=points[i].imul_extra_cycles)
                   for i in members]
        swept = simulate_sweep(cpu, profile, cached_trace(profile, seed),
                               configs, params=params, n_cores=n_cores)
        for i, result in zip(members, swept):
            results[i] = result
    return results  # type: ignore[return-value]


@dataclass
class SuitSystem:
    """A configured SUIT deployment: CPU + strategy + undervolt budget.

    Attributes:
        cpu: the hardware model.
        strategy_name: "fV", "f", "V" or "e".
        voltage_offset: efficient-curve offset (negative volts).
        params: operating-strategy parameters (Table 7 defaults per
            vendor when omitted).
        n_cores: active cores sharing the workload.  On shared-domain
            CPUs every core's traps affect all others; on per-core-domain
            CPUs the core count does not change per-core results.
        seed: RNG seed for sampled delays and trace synthesis.
    """

    cpu: CpuModel
    strategy_name: str = "fV"
    voltage_offset: float = -0.097
    params: Optional[StrategyParams] = None
    n_cores: int = 1
    seed: int = 0
    _trace_cache: Dict[str, FaultableTrace] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.params is None:
            self.params = default_params_for(self.cpu.vendor)
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.n_cores > self.cpu.topology.n_cores:
            raise ValueError(f"{self.cpu.name} has only "
                             f"{self.cpu.topology.n_cores} cores")

    @classmethod
    def for_cpu(cls, short_name: str, **kwargs) -> "SuitSystem":
        """Build for one of the paper's CPUs ("A", "B", "C", "i5")."""
        try:
            factory = ALL_CPU_FACTORIES[short_name]
        except KeyError:
            raise ValueError(f"unknown CPU {short_name!r}; "
                             f"know {sorted(ALL_CPU_FACTORIES)}")
        return cls(cpu=factory(), **kwargs)

    def make_strategy(self) -> OperatingStrategy:
        """A fresh strategy instance with this system's parameters."""
        return strategy_for(self.strategy_name, self.params)

    def run_profile(self, profile: WorkloadProfile,
                    record_timeline: bool = False) -> SimResult:
        """Synthesise the profile's trace (cached) and simulate it.

        A width-1 :func:`~repro.core.batchsim.simulate_sweep` of this
        system's strategy, offset and seed, with the paper's +1-cycle
        IMUL hardening.  The emulation strategy uses the paper's
        closed-form estimate (section 6.2) rather than per-event
        simulation, matching the evaluation methodology
        (``record_timeline`` is ignored there).
        """
        config = SweepConfig(strategy=self.strategy_name,
                             voltage_offset=self.voltage_offset,
                             seed=self.seed)
        [result] = simulate_sweep(self.cpu, profile, self._trace(profile),
                                  [config], params=self.params,
                                  n_cores=self.n_cores,
                                  record_timeline=record_timeline)
        return result

    def run_profile_nosimd(self, profile: WorkloadProfile) -> SimResult:
        """The benchmark compiled without SIMD under this configuration."""
        return nosimd_estimate(self.cpu, profile, self.voltage_offset)

    def evaluate_suite(self, profiles: Iterable[WorkloadProfile]) -> "SuiteResult":
        """Run a list of workloads and aggregate like Table 6."""
        results = [self.run_profile(p) for p in profiles]
        return SuiteResult(results)

    def run_consolidated(self, profiles: List[WorkloadProfile]) -> SimResult:
        """Run different workloads pinned to the cores of one shared
        DVFS domain (server consolidation).

        Only meaningful on shared-frequency-domain CPUs: every task's
        traps switch the whole domain.  Uses the scheduler's
        merged-event-stream construction.

        Raises:
            ValueError: on per-core-domain CPUs (where consolidation is
                trivially independent — simulate each profile alone).
        """
        if self.cpu.topology.per_core_frequency:
            raise ValueError(
                f"{self.cpu.name} has per-core frequency domains; "
                "consolidated tasks do not interact — run them separately")
        if not 1 <= len(profiles) <= self.cpu.topology.n_cores:
            raise ValueError("task count must fit the core count")
        from repro.core.scheduler import Task, _merge_domain_traces

        tasks = [Task(profile=p, trace=self._trace(p)) for p in profiles]
        base_profile, merged = _merge_domain_traces(tasks)
        # The merged trace already encodes all cores: bypass the
        # homogeneous-multicore stagger of run_profile.
        sim = TraceSimulator(
            cpu=self.cpu,
            profile=base_profile,
            trace=merged,
            strategy=self.make_strategy(),
            voltage_offset=self.voltage_offset,
            seed=self.seed,
        )
        return sim.run()

    def prime_trace(self, profile: WorkloadProfile, trace: FaultableTrace) -> None:
        """Pre-populate the trace cache (e.g. to share traces between
        several configured systems)."""
        if trace.name != profile.name:
            raise ValueError("trace does not belong to this profile")
        self._trace_cache[profile.name] = trace

    def _trace(self, profile: WorkloadProfile) -> FaultableTrace:
        if profile.name not in self._trace_cache:
            # The layered cache (process LRU over the shared trace
            # store) serves identical values: generate_trace is pure.
            self._trace_cache[profile.name] = cached_trace(profile, self.seed)
        return self._trace_cache[profile.name]


@dataclass
class SuiteResult:
    """Aggregate of per-workload results (Table 6 row triplets)."""

    results: List[SimResult]

    def __post_init__(self) -> None:
        if not self.results:
            raise ValueError("a suite needs at least one result")

    @property
    def perf_gmean(self) -> float:
        return geomean_change(r.perf_change for r in self.results)

    @property
    def perf_median(self) -> float:
        return median_change(r.perf_change for r in self.results)

    @property
    def power_gmean(self) -> float:
        return geomean_change(r.power_change for r in self.results)

    @property
    def power_median(self) -> float:
        return median_change(r.power_change for r in self.results)

    @property
    def efficiency_gmean(self) -> float:
        return geomean_change(r.efficiency_change for r in self.results)

    @property
    def efficiency_median(self) -> float:
        return median_change(r.efficiency_change for r in self.results)

    @property
    def mean_occupancy(self) -> float:
        return sum(r.efficient_occupancy for r in self.results) / len(self.results)

    def by_name(self, workload: str) -> SimResult:
        """The result for *workload* (KeyError if absent)."""
        for r in self.results:
            if r.workload == workload:
                return r
        raise KeyError(f"no result for workload {workload!r}")
