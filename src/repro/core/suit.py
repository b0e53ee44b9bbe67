"""High-level SUIT system facade.

The entry point most users want: configure a CPU, an undervolt budget
and an operating strategy, then run workloads and read
performance/power/efficiency results.

Example:
    >>> from repro import SuitSystem, spec_profile
    >>> suit = SuitSystem.for_cpu("C", strategy="fV", voltage_offset=-0.097)
    >>> result = suit.run_profile(spec_profile("557.xz"))
    >>> result.efficiency_change > 0
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.estimates import nosimd_estimate
from repro.core.metrics import SimResult, geomean_change, median_change
from repro.core.params import StrategyParams, default_params_for
from repro.core.simulator import TraceSimulator
from repro.core.strategy import OperatingStrategy, strategy_for
from repro.hardware.cpu import CpuModel
from repro.hardware.models import ALL_CPU_FACTORIES
from repro.workloads.profile import WorkloadProfile
from repro.workloads.tracecache import cached_trace
from repro.workloads.trace import FaultableTrace


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
                    record_timeline: bool = False,
                    harden_imul: bool = True) -> SimResult:
        """Synthesise the profile's trace (cached) and simulate it.

        A width-1 :func:`~repro.core.batchsim.simulate_sweep` of this
        system's strategy, offset and seed.  The emulation strategy
        uses the paper's closed-form estimate (section 6.2) rather than
        per-event simulation, matching the evaluation methodology
        (``harden_imul`` and ``record_timeline`` are ignored there: the
        estimate always carries the paper's +1-cycle hardening).
        ``harden_imul=False`` skips the built-in +1-cycle IMUL tax so
        callers exploring other pipeline depths can post-apply their
        own via :func:`repro.core.metrics.apply_imul_tax`.
        """
        config = SweepConfig(strategy=self.strategy_name,
                             voltage_offset=self.voltage_offset,
                             seed=self.seed, harden_imul=harden_imul)
        [result] = simulate_sweep(self.cpu, profile, self._trace(profile),
                                  [config], params=self.params,
                                  n_cores=self.n_cores,
                                  record_timeline=record_timeline)
        return result

    def run_sweep(self, profile: WorkloadProfile,
                  configs: Iterable[SweepConfig]) -> List[SimResult]:
        """Evaluate many sweep configs over this profile's trace.

        The trace is synthesised (or served from cache) once and
        compiled once; every config runs on the shared episode
        (:mod:`repro.core.batchsim`).  :meth:`run_profile` is the
        width-1 case: a config with this system's strategy, offset and
        ``seed == self.seed`` reproduces ``run_profile(profile)``
        exactly.

        Note the config seeds only steer the *simulation* RNG; trace
        synthesis always uses this system's seed, as in
        :meth:`run_profile`.
        """
        return simulate_sweep(self.cpu, profile, self._trace(profile),
                              list(configs), params=self.params,
                              n_cores=self.n_cores)

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
