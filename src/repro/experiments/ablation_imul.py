"""Ablation: why IMUL must be statically hardened (paper section 4.2).

SUIT's second building block exists because IMUL is *frequent*: on
average one IMUL every ~560 instructions (0.07-1 % of the stream).  This
ablation compares the two designs:

* **harden** (SUIT): +1 pipeline stage; tiny static tax, zero traps.
* **trap** (counterfactual): IMUL stays in the disabled set; every IMUL
  outside a deadline window raises #DO.

With trapping, the deadline timer is reset every ~560 instructions —
the CPU permanently stays on the conservative curve and the entire
efficiency gain evaporates, exactly the paper's argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import imul_latency_overhead
from repro.core.params import DEFAULT_PARAMS_INTEL
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.experiments.common import ExperimentResult
from repro.hardware.models import cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

#: Paper section 1: one IMUL "as frequently as every 560 instructions".
IMUL_GAP_INSTRUCTIONS = 560


def _imul_trap_trace(n_instructions: int, ipc: float,
                     rng: np.random.Generator) -> FaultableTrace:
    """A trace whose events are the IMUL executions themselves."""
    gaps = rng.exponential(IMUL_GAP_INSTRUCTIONS,
                           size=int(n_instructions / IMUL_GAP_INSTRUCTIONS))
    indices = np.cumsum(np.maximum(gaps, 1.0)).astype(np.int64)
    indices = indices[indices < n_instructions]
    return FaultableTrace(
        name="imul-trapped", n_instructions=n_instructions, ipc=ipc,
        indices=indices, opcodes=np.zeros(indices.size, dtype=np.uint8),
        opcode_table=(Opcode.VXOR,),  # stand-in class for the trapped IMUL
    )


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Compare hardened-IMUL SUIT against trap-everything SUIT."""
    result = ExperimentResult(
        experiment_id="ablation-imul",
        title="Static IMUL hardening vs dynamically trapping IMUL",
    )
    cpu = cpu_c_xeon_4208()
    n = 100_000_000 if fast else 400_000_000
    ipc = 1.8
    profile = WorkloadProfile(
        name="imul-trapped", suite="SPECint", n_instructions=n, ipc=ipc,
        efficient_occupancy=0.9, n_episodes=1, dense_gap=1000,
        imul_density=1.0 / IMUL_GAP_INSTRUCTIONS, imul_chain_fraction=0.2,
        opcode_mix={Opcode.VXOR: 1.0})

    # Design 1: harden. No IMUL traps at all; pay the latency tax.
    tax = imul_latency_overhead(profile, extra_cycles=1)
    empty = FaultableTrace(
        name="imul-trapped", n_instructions=n, ipc=ipc,
        indices=np.array([], dtype=np.int64),
        opcodes=np.array([], dtype=np.uint8), opcode_table=(Opcode.VXOR,))
    hardened = TraceSimulator(
        cpu, profile, empty, strategy_for("fV", DEFAULT_PARAMS_INTEL),
        -0.097, seed=seed).run()

    # Design 2: trap IMUL like everything else.
    rng = np.random.default_rng(seed)
    trapped_trace = _imul_trap_trace(n, ipc, rng)
    trapped = TraceSimulator(
        cpu, profile, trapped_trace, strategy_for("fV", DEFAULT_PARAMS_INTEL),
        -0.097, seed=seed, imul_extra_cycles=0).run()

    result.lines.append(
        f"harden: eff {hardened.efficiency_change * 100:+.2f}% "
        f"(tax {tax * 100:.2f}%), occupancy "
        f"{hardened.efficient_occupancy:.2f}, traps {hardened.n_exceptions}")
    result.lines.append(
        f"trap:   eff {trapped.efficiency_change * 100:+.2f}%, occupancy "
        f"{trapped.efficient_occupancy:.3f}, traps {trapped.n_exceptions}")

    result.add_metric("harden.efficiency", hardened.efficiency_change)
    result.add_metric("trap.efficiency", trapped.efficiency_change)
    result.add_metric("trap.occupancy", trapped.efficient_occupancy,
                      paper=0.0, unit="")
    result.add_metric("hardening_wins",
                      1.0 if hardened.efficiency_change
                      > trapped.efficiency_change + 0.05 else 0.0,
                      paper=1.0, unit="")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().report())
