"""Multi-core simulation on a shared DVFS domain (paper section 6.2/6.4).

On CPUs with a single frequency/voltage domain (CPU A), every core's #DO
exceptions switch the whole package, and frequency-change stalls hit all
cores.  The paper simulates this by pinning one instruction stream per
core.

Because all cores of the shared domain always run at the same clock and
the pinned streams have equal length and IPC, the k-core system is
equivalent to a single stream whose faultable events are the *merged*
(staggered) events of all cores: any core's event resets the shared
deadline or traps the shared domain.  :func:`merged_multicore_trace`
builds that merged trace, which the ordinary
:class:`~repro.core.simulator.TraceSimulator` then executes.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.trace import FaultableTrace


def merged_multicore_trace(trace: FaultableTrace, n_cores: int,
                           stagger_fraction: float = None) -> FaultableTrace:
    """Merge *n_cores* staggered copies of *trace* into one event stream.

    Each core runs the same workload shifted by ``k / n_cores`` of the
    run (wrapping around), the usual way multiprogrammed rate runs are
    laid out.  The returned trace keeps the per-core instruction count —
    positions mean "instructions retired per core", which is exactly the
    shared-domain progress coordinate.

    Args:
        trace: the single-core trace.
        n_cores: cores pinned with a copy each.
        stagger_fraction: offset between consecutive cores as a fraction
            of the run (default ``1 / n_cores``).
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    if n_cores == 1:
        return trace
    if stagger_fraction is None:
        stagger_fraction = 1.0 / n_cores
    if not 0.0 <= stagger_fraction <= 1.0:
        raise ValueError("stagger_fraction must be a fraction")

    n = trace.n_instructions
    parts_idx = []
    parts_ops = []
    for core in range(n_cores):
        shift = int(round(core * stagger_fraction * n)) % n
        # Shifting by *shift* wraps the events at or after n - shift to
        # [0, shift) and moves the rest to [shift, n): the sorted copy
        # is the wrapped tail followed by the head, in trace order.
        split = int(np.searchsorted(trace.indices, n - shift))
        parts_idx.append(np.concatenate((trace.indices[split:] + (shift - n),
                                         trace.indices[:split] + shift)))
        parts_ops.append(np.concatenate((trace.opcodes[split:],
                                         trace.opcodes[:split])))
    merged_idx = np.concatenate(parts_idx)
    merged_ops = np.concatenate(parts_ops)
    order = np.argsort(merged_idx, kind="stable")
    return FaultableTrace(
        name=f"{trace.name}x{n_cores}",
        n_instructions=n,
        ipc=trace.ipc,
        indices=merged_idx[order],
        opcodes=merged_ops[order],
        opcode_table=trace.opcode_table,
    )
