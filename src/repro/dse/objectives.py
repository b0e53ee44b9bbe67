"""Mapping genomes onto the DSE's three minimized objectives.

Performance and energy come from simulation: the duration ratio and
relative energy of one :class:`~repro.core.metrics.SimResult`.  The
security margin is analytic: at a given process-variation corner and
IMUL pipeline depth, the *kept* instruction set (everything SUIT does
not trap — the non-faultable mass plus the hardened IMUL) has a most
fragile member whose maximum safe curve offset bounds how deep the
efficient curve may sit.  The **headroom** is the distance (mV) between
the genome's offset and that bound; a feasible operating point keeps at
least ``security_floor_mv`` of headroom, anything less is a constraint
violation that Deb-dominates it off the frontier.

Two genomes differing only in their *corner* share one simulation: the
corner shifts the analytic margin, never the simulated timeline.
:class:`SimJob` captures exactly the simulation-identity genes, so the
evaluator deduplicates on its sha256 key (no ``hash()``, no dict-order
dependence — the ``PYTHONHASHSEED`` regression test holds the whole
path to that discipline).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.suit import OperatingPoint
from repro.dse.space import (CORNER_SIGMA_SHIFTS, DseSpec, Genome,
                             IMUL_BASE_LATENCY)
from repro.faults.model import FaultModel
from repro.hardware.cpu import CpuModel
from repro.isa.faultable import FAULTABLE_OPCODES
from repro.isa.opcodes import Opcode

#: Frequencies (Hz) the kept-set audit checks in addition to the CPU's
#: nominal frequency — undervolt headroom shrinks toward low clocks on
#: the efficient curve, so the audit covers the operating range.
AUDIT_FREQUENCIES: Tuple[float, ...] = (2.0e9, 3.0e9)

#: Hypervolume reference point over (duration ratio, energy ratio,
#: negated headroom in volts): anything slower/hungrier than 2x
#: baseline or with negative headroom contributes no volume.
REFERENCE_POINT: Tuple[float, float, float] = (2.0, 2.0, 0.0)

#: Identity domain for simulation jobs; bump on layout changes.
_JOB_DOMAIN = "repro.dse.sim.v1"

#: Memo of the kept-set worst safe offset per
#: ``(cpu, corner, imul_latency, n_cores)`` — the audit scans every
#: opcode x core x frequency, so computing it once per corner matters.
_WORST_OFFSET_MEMO: Dict[Tuple[str, str, int, int], float] = {}


def kept_opcodes() -> Tuple[Opcode, ...]:
    """The instruction classes SUIT leaves enabled on the efficient
    curve: everything outside the trap set, plus IMUL (hardened rather
    than trapped, section 4.2).  Sorted by name for deterministic
    iteration."""
    kept = [op for op in Opcode
            if op not in FAULTABLE_OPCODES or op is Opcode.IMUL]
    return tuple(sorted(kept, key=lambda op: op.name))


def worst_kept_offset_v(cpu: CpuModel, corner: str, imul_latency: int,
                        n_cores: int = 1) -> float:
    """Most restrictive (closest to zero) safe curve offset, in volts.

    Builds the deterministic corner chip, applies the genome's IMUL
    hardening depth, and takes the maximum ``max_safe_offset`` over
    every kept opcode, core and audited frequency — the binding
    constraint on how deep the efficient curve may sit at this corner.
    """
    key = (cpu.name, corner, int(imul_latency), int(n_cores))
    memo = _WORST_OFFSET_MEMO.get(key)
    if memo is not None:
        return memo
    shift = CORNER_SIGMA_SHIFTS[corner]
    chip = FaultModel().corner_chip(cpu.conservative_curve, shift,
                                    n_cores=n_cores)
    if imul_latency > IMUL_BASE_LATENCY:
        chip = chip.with_hardened_imul(IMUL_BASE_LATENCY, imul_latency)
    frequencies = tuple(AUDIT_FREQUENCIES) + (cpu.nominal_frequency,)
    worst = None
    for op in kept_opcodes():
        for core in range(n_cores):
            for freq in frequencies:
                offset = chip.max_safe_offset(op, core, freq)
                if worst is None or offset > worst:
                    worst = offset
    _WORST_OFFSET_MEMO[key] = worst
    return worst


def security_headroom_mv(cpu: CpuModel, genome: Genome,
                         n_cores: int = 1) -> float:
    """Undervolt headroom (mV) the genome's kept set retains.

    Positive: the offset sits *above* the most fragile kept
    instruction's fault threshold by that many millivolts.  Negative:
    kept instructions already fault — the operating point is broken
    regardless of any floor.
    """
    worst = worst_kept_offset_v(cpu, genome.corner, genome.imul_latency,
                                n_cores=n_cores)
    return (genome.offset_mv / 1000.0 - worst) * 1000.0


def violation_mv(headroom_mv: float, floor_mv: float) -> float:
    """Constraint violation: millivolts of missing headroom (0 = feasible)."""
    return max(0.0, floor_mv - headroom_mv)


@dataclass(frozen=True)
class SimJob:
    """The simulation identity of a genome: exactly the genes that can
    change the simulated timeline.

    The process-variation corner is deliberately absent — it only
    shifts the analytic security margin — so genomes differing solely
    by corner collapse onto one job (and one simulation).

    Attributes:
        cpu: CPU short name.
        workload: workload profile name.
        strategy: operating strategy.
        offset_mv: efficient-curve offset in millivolts (negative).
        deadline_us: deadline parameter in microseconds.
        imul_extra_cycles: IMUL pipeline cycles beyond the baseline.
        n_cores: active cores sharing the workload.
    """

    cpu: str
    workload: str
    strategy: str
    offset_mv: float
    deadline_us: float
    imul_extra_cycles: int
    n_cores: int

    @classmethod
    def from_genome(cls, spec: DseSpec, genome: Genome) -> "SimJob":
        """The job evaluating *genome* under *spec* (canonicalized first)."""
        canon = genome.canonical()
        return cls(cpu=spec.cpu, workload=spec.workload,
                   strategy=canon.strategy,
                   offset_mv=float(canon.offset_mv),
                   deadline_us=float(canon.deadline_us),
                   imul_extra_cycles=canon.imul_extra_cycles,
                   n_cores=spec.n_cores)

    @property
    def voltage_offset(self) -> float:
        """The offset in volts, as the simulator expects it."""
        return self.offset_mv / 1000.0

    def point(self, seed: int) -> OperatingPoint:
        """The operating point this job simulates, under trace seed
        *seed* (the search's)."""
        return OperatingPoint(
            cpu=self.cpu, workload=self.workload, strategy=self.strategy,
            voltage_offset=self.voltage_offset, seed=seed,
            n_cores=self.n_cores, deadline_us=self.deadline_us,
            imul_extra_cycles=self.imul_extra_cycles)

    def to_json_dict(self) -> dict:
        """Plain-JSON form (round-trips through :meth:`from_json_dict`)."""
        return {
            "cpu": self.cpu,
            "workload": self.workload,
            "strategy": self.strategy,
            "offset_mv": float(self.offset_mv),
            "deadline_us": float(self.deadline_us),
            "imul_extra_cycles": int(self.imul_extra_cycles),
            "n_cores": int(self.n_cores),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SimJob":
        """Rebuild a job from :meth:`to_json_dict` output."""
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown job field(s): {sorted(unknown)}")
        return cls(**payload)

    def key(self) -> str:
        """sha256 content address (64 hex chars) of this job."""
        material = {"domain": _JOB_DOMAIN, "job": self.to_json_dict()}
        canonical = json.dumps(material, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def objective_vector(sim: dict, headroom_mv: float) -> Tuple[float, float, float]:
    """The minimized objective triple of one evaluation.

    Args:
        sim: a simulation payload with ``duration_s``,
            ``baseline_duration_s`` and ``energy_rel`` (the jsonified
            :class:`~repro.core.metrics.SimResult` fields).
        headroom_mv: the genome's analytic security headroom.

    Returns:
        ``(duration_ratio, energy_ratio, -headroom_v)`` — smaller is
        better on every axis; the security axis is in (negated) volts
        so the hypervolume reference point spans comparable magnitudes.
    """
    duration_ratio = sim["duration_s"] / sim["baseline_duration_s"]
    energy_ratio = sim["energy_rel"] / sim["baseline_duration_s"]
    return (duration_ratio, energy_ratio, -headroom_mv / 1000.0)
