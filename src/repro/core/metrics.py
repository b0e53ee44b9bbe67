"""Simulation results and evaluation metrics (paper sections 5.4, 6.3).

The paper's efficiency definition: if a change makes the benchmark take
``d`` times as long at ``p`` times the power, the efficiency changes by
``1/(d * p) - 1``.  Performance changes are score (1/duration) changes;
power changes are mean-package-power changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.workloads.profile import WorkloadProfile


def imul_latency_overhead(profile: WorkloadProfile, extra_cycles: int = 1) -> float:
    """Slowdown from statically lengthening IMUL (section 6.1).

    Out-of-order execution hides the extra latency except where IMUL
    results feed dependent work quickly; the exposed fraction grows with
    the workload's multiply-chain share.  Calibrated against the pipeline
    simulator (Fig 14): 525.x264 (0.99 % IMULs, heavily chained) loses
    ~1.6 %, the suite average (0.07 % IMULs) ~0.03 %.

    Returns:
        Fractional duration increase (>= 0).
    """
    if extra_cycles < 0:
        raise ValueError("extra_cycles must be non-negative")
    if extra_cycles == 0:
        return 0.0
    exposure = min(1.0, 0.08 + 0.62 * profile.imul_chain_fraction)
    return profile.imul_density * exposure * profile.ipc * extra_cycles


@dataclass
class SimResult:
    """Outcome of one SUIT simulation run.

    Attributes:
        workload: workload name.
        cpu_name: CPU model name.
        strategy: operating strategy short name.
        voltage_offset: efficient-curve offset (negative volts).
        duration_s: SUIT run duration (including the IMUL hardening tax).
        baseline_duration_s: duration without SUIT on the conservative
            curve.
        energy_rel: integral of relative power over the run (units of
            baseline-power-seconds; baseline energy == baseline duration).
        state_time: seconds per state ("E", "Cf", "CV", "stall").
        n_exceptions: #DO exceptions taken.
        n_switches: switches onto the conservative curve.
        n_timer_fires: deadline expiries (returns to E).
        n_thrash_stretches: deadlines armed stretched by p_df.
        timeline: optional recorded (time, state) transitions.
        timeline_truncated: True when the recording hit the simulator's
            timeline cap and later transitions were dropped — figures
            built from ``timeline`` only cover a prefix of the run.
    """

    workload: str
    cpu_name: str
    strategy: str
    voltage_offset: float
    duration_s: float
    baseline_duration_s: float
    energy_rel: float
    state_time: Dict[str, float] = field(default_factory=dict)
    n_exceptions: int = 0
    n_switches: int = 0
    n_timer_fires: int = 0
    n_thrash_stretches: int = 0
    timeline: Optional[List[Tuple[float, str]]] = None
    timeline_truncated: bool = False

    @property
    def duration_ratio(self) -> float:
        """SUIT duration / baseline duration."""
        return self.duration_s / self.baseline_duration_s

    @property
    def perf_change(self) -> float:
        """Score change: positive = faster with SUIT."""
        return 1.0 / self.duration_ratio - 1.0

    @property
    def power_ratio(self) -> float:
        """Mean package power relative to the conservative baseline."""
        return self.energy_rel / self.duration_s

    @property
    def power_change(self) -> float:
        """Mean power change: negative = less power with SUIT."""
        return self.power_ratio - 1.0

    @property
    def efficiency_change(self) -> float:
        """Paper definition: ``1/(duration_ratio * power_ratio) - 1``."""
        return 1.0 / (self.duration_ratio * self.power_ratio) - 1.0

    @property
    def efficient_occupancy(self) -> float:
        """Fraction of run time spent on the efficient curve."""
        if self.duration_s <= 0:
            return 0.0
        return self.state_time.get("E", 0.0) / self.duration_s


def geomean_change(changes: Iterable[float]) -> float:
    """Geometric mean of relative changes (each given as a fraction).

    ``geomean_change([0.10, -0.05])`` treats the inputs as ratios 1.10
    and 0.95 and returns the geometric-mean ratio minus one — the way
    SPEC aggregates per-benchmark results.
    """
    values = list(changes)
    if not values:
        raise ValueError("need at least one change")
    log_sum = 0.0
    for c in values:
        ratio = 1.0 + c
        if ratio <= 0:
            raise ValueError(f"change {c} implies a non-positive ratio")
        log_sum += math.log(ratio)
    return math.exp(log_sum / len(values)) - 1.0


def median_change(changes: Iterable[float]) -> float:
    """Median of relative changes."""
    values = sorted(changes)
    if not values:
        raise ValueError("need at least one change")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])
