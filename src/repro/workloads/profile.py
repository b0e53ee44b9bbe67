"""Workload profile: everything the evaluation knows about one workload.

A profile captures, per workload, the statistics the paper extracts from
its QEMU traces and SPEC runs: how faultable instructions cluster
(episodes and in-episode density), how often IMUL occurs and how
chained it is (section 6.1), and the measured no-SIMD compile overhead
(Table 4, per vendor).  Trace synthesis (:mod:`repro.workloads.generator`)
turns a profile into a concrete :class:`~repro.workloads.trace.FaultableTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.isa.faultable import TRAPPED_OPCODES
from repro.isa.opcodes import Opcode


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one workload.

    Attributes:
        name: workload name ("502.gcc", "nginx", ...).
        suite: "SPECint", "SPECfp" or "network".
        n_instructions: retired instructions of the (scaled) run.
        ipc: average instructions per cycle.
        efficient_occupancy: calibration target — fraction of run time on
            the efficient curve under the reference fV configuration
            (CPU C, 30 us deadline).  Drives the episode layout.
        n_episodes: number of dense faultable episodes in the run.
        dense_gap: mean instructions between faultable executions inside
            an episode.
        sparse_events: isolated faultable executions outside episodes.
        imul_density: IMUL instructions per retired instruction.
        imul_chain_fraction: fraction of IMULs whose result feeds the next
            IMUL (dependent multiply chains; drives latency exposure).
        nosimd_overhead: per-vendor score impact of compiling without
            SSE/AVX (fraction; negative = slower without SIMD, Table 4).
        in_enclave: whether the workload runs inside a trusted execution
            environment.  SUIT cannot emulate enclave instructions (the
            kernel cannot inject code into the enclave, section 4.3);
            only curve switching is available.
        opcode_mix: relative weights of the trapped opcodes appearing in
            the faultable events.
    """

    name: str
    suite: str
    n_instructions: int
    ipc: float
    efficient_occupancy: float
    n_episodes: int
    dense_gap: float
    sparse_events: int = 10
    imul_density: float = 0.0007
    imul_chain_fraction: float = 0.10
    nosimd_overhead: Mapping[str, float] = field(
        default_factory=lambda: {"intel": -0.01, "amd": -0.015})
    opcode_mix: Mapping[Opcode, float] = field(
        default_factory=lambda: {Opcode.VOR: 0.4, Opcode.VXOR: 0.3,
                                 Opcode.VPADDQ: 0.2, Opcode.VPCMP: 0.1})
    in_enclave: bool = False

    def __post_init__(self) -> None:
        if self.n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        if self.ipc <= 0:
            raise ValueError("ipc must be positive")
        if not 0.0 <= self.efficient_occupancy <= 1.0:
            raise ValueError("efficient_occupancy must be a fraction")
        if self.n_episodes < 1:
            raise ValueError("need at least one episode")
        if self.dense_gap < 1:
            raise ValueError("dense_gap must be at least 1 instruction")
        if not 0.0 <= self.imul_density < 1.0:
            raise ValueError("imul_density must be a fraction")
        if not 0.0 <= self.imul_chain_fraction <= 1.0:
            raise ValueError("imul_chain_fraction must be a fraction")
        if not self.opcode_mix:
            raise ValueError("opcode_mix must name at least one opcode")
        for op, weight in self.opcode_mix.items():
            if op not in TRAPPED_OPCODES:
                raise ValueError(f"{op} is not a trapped opcode")
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"opcode_mix weight of {op} must be finite "
                                 f"and non-negative, got {weight}")
        if not 0.0 < sum(self.opcode_mix.values()) < math.inf:
            raise ValueError("opcode_mix weights must sum to a positive, "
                             "finite value")

    def nosimd_for(self, vendor: str) -> float:
        """No-SIMD score impact for *vendor* ("intel"/"amd")."""
        try:
            return self.nosimd_overhead[vendor]
        except KeyError:
            raise KeyError(f"no no-SIMD overhead recorded for vendor {vendor!r}")

    @property
    def is_spec(self) -> bool:
        return self.suite in ("SPECint", "SPECfp")

    def normalized_mix(self) -> Dict[Opcode, float]:
        """Opcode mix normalised to sum 1."""
        total = sum(self.opcode_mix.values())
        return {op: w / total for op, w in self.opcode_mix.items()}
