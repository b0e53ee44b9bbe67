"""Trace synthesis from workload profiles.

Lays out the dense episodes and sparse events a profile describes into a
concrete :class:`~repro.workloads.trace.FaultableTrace`.  The episode
budget is derived from the profile's calibrated efficient-curve occupancy
target: time on the conservative curve is spent either *inside* an
episode or waiting out the deadline after one, so

    dense_instructions ~ (1 - occupancy) * n  -  episodes * deadline_instr

with the deadline converted to instructions at the reference
configuration the profiles were calibrated for (CPU C, 30 us deadline,
3 GHz).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.opcodes import Opcode
from repro.workloads.gaps import burst_positions, interleave_sparse_events
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

#: Reference configuration the occupancy targets are calibrated against.
REFERENCE_DEADLINE_S: float = 30e-6
REFERENCE_FREQUENCY_HZ: float = 3.0e9
#: Per-episode switching overhead (exception, frequency changes and the
#: Cf-phase slowdown) at the reference configuration, in seconds.
REFERENCE_EPISODE_OVERHEAD_S: float = 60e-6


def generate_trace(profile: WorkloadProfile,
                   rng: Optional[np.random.Generator] = None,
                   seed: int = 0) -> FaultableTrace:
    """Synthesise the faultable-instruction trace of *profile*.

    The draws come in a fixed order (episode spacing, each episode's
    gaps with any redraws, the sparse events, one uniform per event for
    its opcode) and ``tests/test_trace_regression.py`` pins the output
    bit for bit; ``docs/workloads.md`` says why each pass is exact.

    Args:
        profile: the workload description.
        rng: randomness source; if None, a fresh generator seeded with
            *seed* (plus a stable hash of the profile name) is used so
            every workload gets a distinct but reproducible trace.
    """
    if rng is None:
        name_salt = sum(ord(c) for c in profile.name)
        rng = np.random.default_rng(seed * 100003 + name_salt)

    n = profile.n_instructions
    m = profile.n_episodes
    instr_per_s = profile.ipc * REFERENCE_FREQUENCY_HZ
    deadline_instr = (REFERENCE_DEADLINE_S + REFERENCE_EPISODE_OVERHEAD_S) * instr_per_s

    conservative_budget = (1.0 - profile.efficient_occupancy) * n
    dense_total = conservative_budget - m * deadline_instr
    # Keep at least a sliver of dense time so the trace has its episodes.
    dense_total = max(dense_total, 0.05 * conservative_budget)
    episode_len = max(int(dense_total / m), int(2 * profile.dense_gap))

    sparse_total = n - episode_len * m
    if sparse_total <= 0:
        raise ValueError(
            f"profile {profile.name}: episodes do not fit the trace; "
            "reduce n_episodes or raise efficient_occupancy")

    # Episode start positions: sparse segments with lognormal weights.
    weights = rng.lognormal(mean=0.0, sigma=0.6, size=m + 1)
    seg = weights / weights.sum() * sparse_total
    starts = np.cumsum(seg)[:m] + np.arange(m) * episode_len
    starts = starts.astype(np.int64)

    chunks = [
        burst_positions(rng, int(s), episode_len, profile.dense_gap)
        for s in starts
    ]
    chunks.append(interleave_sparse_events(rng, profile.sparse_events, 0, n))
    indices = np.concatenate(chunks)
    del chunks  # a second copy of every event, dead from here on
    # Each chunk is sorted, so the stable sort (timsort) merges runs.
    indices.sort(kind="stable")
    lo, hi = np.searchsorted(indices, (0, n))
    indices = indices[lo:hi]

    mix = profile.normalized_mix()
    table = tuple(mix)
    codes = _draw_codes(rng, [mix[op] for op in table], indices.size)
    return FaultableTrace(
        name=profile.name,
        n_instructions=n,
        ipc=profile.ipc,
        indices=indices,
        opcodes=codes,
        opcode_table=table,
    )


def _draw_codes(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """``rng.choice(len(p), size, p=p).astype(np.uint8)``, bit for bit.

    ``Generator.choice`` maps each ``rng.random(size)`` draw *u* through
    ``cdf.searchsorted(u, side="right")``, the number of CDF entries
    ``<= u``.  Counting those entries directly gives the same codes and
    leaves the generator in the same state, without the binary search
    and its int64 index array.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    codes = np.zeros(size, dtype=np.uint8)
    # u < 1.0 == cdf[-1], so the last entry never counts.
    for edge in cdf[:-1]:
        codes += u >= edge
    return codes


def single_burst_trace(name: str, n_instructions: int, ipc: float,
                       burst_start: int, burst_length: int, dense_gap: float,
                       opcode: Opcode = Opcode.AESENC,
                       seed: int = 0) -> FaultableTrace:
    """A minimal trace with exactly one dense burst (Figs 5 and 6).

    Useful for illustrating a single trap/curve-switch episode.
    """
    rng = np.random.default_rng(seed)
    if not 0 <= burst_start < burst_start + burst_length <= n_instructions:
        raise ValueError("burst does not fit the trace")
    indices = burst_positions(rng, burst_start, burst_length, dense_gap)
    return FaultableTrace(
        name=name,
        n_instructions=n_instructions,
        ipc=ipc,
        indices=indices,
        opcodes=np.zeros(indices.size, dtype=np.uint8),
        opcode_table=(opcode,),
    )
