"""Sweep evaluation: many configs over one compiled trace.

Sweeps evaluate the *same* trace once per ``(strategy,
voltage_offset, seed, imul_extra_cycles)`` config.
:func:`simulate_sweep` compiles the trace once into a
:class:`~repro.core.simulator.TraceEpisode` (the gap array plus a
block-maximum index over it) and runs every config through
:class:`~repro.core.simulator.TraceSimulator` on that shared episode.
Operating points reach it through :func:`repro.core.suit.evaluate`,
which runs one sweep per group of points sharing a trace and a
deadline: the service worker, the DSE, the differential oracle,
``repro simulate`` and fig15/fig16 all do.

Per-config semantics are those of
:meth:`~repro.core.suit.SuitSystem.run_profile`, which is a width-1
sweep: the ``e`` strategy returns the paper's closed-form emulation
estimate, every other strategy is simulated event by event, and
``n_cores > 1`` on a shared-domain CPU merges the trace once for all
configs.  The path each config takes is counted in the
``batchsim_configs_total`` metric (``vector`` for a simulated config,
``estimate`` for the closed form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.estimates import emulation_estimate
from repro.core.metrics import SimResult
from repro.core.multicore import merged_multicore_trace
from repro.core.params import StrategyParams, default_params_for
from repro.core.simulator import TraceSimulator, compile_episode
from repro.core.strategy import strategy_for
from repro.hardware.cpu import CpuModel
from repro.obs.registry import get_registry
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

#: Histogram bounds for sweep batch widths (configs per call).
_WIDTH_BOUNDS = tuple(float(2 ** i) for i in range(11))


@dataclass(frozen=True)
class SweepConfig:
    """One point of a sweep over a shared trace.

    Attributes:
        strategy: Table 6 short name ("fV", "f", "V", "e").
        voltage_offset: efficient-curve offset in volts (negative).
        seed: RNG seed for the sampled delays of this run.
        imul_extra_cycles: IMUL hardening depth (see
            :class:`~repro.core.simulator.TraceSimulator`).
    """

    strategy: str = "fV"
    voltage_offset: float = -0.097
    seed: int = 0
    imul_extra_cycles: int = 1


def simulate_sweep(cpu: CpuModel, profile: WorkloadProfile,
                   trace: FaultableTrace,
                   configs: Sequence[SweepConfig], *,
                   params: Optional[StrategyParams] = None,
                   n_cores: int = 1,
                   record_timeline: bool = False) -> List[SimResult]:
    """Evaluate many configs over one trace, sharing the compiled
    episode.

    The ``e`` strategy returns the closed-form emulation estimate
    (raising for enclave workloads, and ignoring ``imul_extra_cycles``
    and *record_timeline*: the estimate always carries the +1-cycle
    hardening).  Every other strategy is simulated event by event, and
    ``n_cores > 1`` on a shared-domain CPU merges the trace once for
    all configs.  *record_timeline* records each simulated config's
    state timeline.  Results are returned in config order.
    """
    if params is None:
        params = default_params_for(cpu.vendor)
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    if n_cores > cpu.topology.n_cores:
        raise ValueError(f"{cpu.name} has only "
                         f"{cpu.topology.n_cores} cores")

    registry = get_registry()
    paths = registry.counter("batchsim_configs_total",
                             "sweep configs by evaluation path",
                             label_names=("path",))
    registry.histogram("batchsim_batch_width",
                       "configs per simulate_sweep call",
                       bounds=list(_WIDTH_BOUNDS)).observe(len(configs))

    sim_trace: Optional[FaultableTrace] = None
    results: List[SimResult] = []
    for config in configs:
        if config.strategy == "e":
            # Closed-form estimate on the per-core trace (emulation
            # never interacts across cores).
            if profile.in_enclave:
                raise ValueError(
                    f"{profile.name} runs in a trusted execution "
                    "environment; emulation is not possible for enclaves "
                    "(section 4.3) — use a curve-switching strategy")
            paths.inc(path="estimate")
            results.append(emulation_estimate(cpu, profile, trace,
                                              config.voltage_offset))
            continue
        strategy = strategy_for(config.strategy, params)
        if sim_trace is None:
            sim_trace = trace
            if n_cores > 1 and not cpu.topology.per_core_frequency:
                sim_trace = merged_multicore_trace(trace, n_cores)
            # Compiled once here; every config's simulator then finds
            # the episode cached on the trace.
            compile_episode(sim_trace)
        paths.inc(path="vector")
        results.append(TraceSimulator(
            cpu, profile, sim_trace, strategy, config.voltage_offset,
            seed=config.seed, record_timeline=record_timeline,
            imul_extra_cycles=config.imul_extra_cycles).run())
    return results
