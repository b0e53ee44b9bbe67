"""The closed-loop timing harness shared by every workload.

One caller: each op starts only after the previous op's answer came
back and was checked.  The clock runs only while an op is in flight;
answer checks and state resets between ops are outside it, so the timed
phase is the sum of op wall times and ``ops_per_s`` is ops over that
sum.  A run lasts until the timed phase reaches ``--seconds``.

A workload object provides::

    setup(rep)            # one set-up repetition from a fresh state,
                          # ending with one untimed warm-up op
    prepare(i) -> arg     # untimed: the inputs of op i, from the seed
    op(arg) -> out        # timed: one call into the program
    check(i, arg, out) -> (digest_bytes, error or None)   # untimed
    finish() -> {op index: error}   # untimed checks after the run
    layer_extras(n_ops) -> dict     # per-layer values the program counts
    close()
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: Candidate tail percentiles, in per mille, highest first: p75 from 40
#: ops, else the median.  There is no higher rung: ``serve``'s latency
#: climbs through a run (every result-cache put scans the whole cache),
#: so its p99 and p95 sample the run's last seconds, and they moved 0.29
#: and 0.30 (quartile spread over median) between ten runs of identical
#: code, beyond the benchmark's 0.25 bound.
TAIL_LADDER_PERMILLE = (750, 500)
#: Ops that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def sub_seed(seed: int, label: str) -> int:
    """A 24-bit seed derived from the run seed for one purpose."""
    digest = hashlib.sha256(f"opbench/{label}/{seed}".encode()).digest()
    return int.from_bytes(digest[:3], "big")


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(percentile, value, ops beyond it)`` of the tail of *values*.

    The tail is the highest percentile of :data:`TAIL_LADDER_PERMILLE`
    (nearest rank) with at least :data:`TAIL_MIN_BEYOND` values beyond
    it.  With fewer than 20 values no rung qualifies, and the tail
    falls back to the nearest-rank median.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_LADDER_PERMILLE:
        rank = -(-permille * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND or permille == 500:
            return permille / 10.0, ordered[max(rank, 1) - 1], n - rank
    raise AssertionError("unreachable")


@dataclass
class RunRecord:
    """What one run measured."""

    import_s: float
    setup_reps_s: List[float]
    latencies_s: List[float]
    traced: List[bool]
    digests: List[bytes]
    errors: Dict[int, str] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        """Imports plus the median set-up repetition."""
        return self.import_s + statistics.median(self.setup_reps_s)

    def sim_digest(self, n_ops: int) -> Tuple[str, int]:
        """sha256 over the simulated statistics of the first *n_ops*
        ops (fewer when the run made fewer), and how many it covers."""
        covered = self.digests[:n_ops]
        h = hashlib.sha256()
        for material in covered:
            h.update(hashlib.sha256(material).digest())
        return h.hexdigest(), len(covered)


def end_to_end(latencies_s: List[float]) -> Dict[str, float]:
    """p50, tail and throughput of one closed loop's op latencies."""
    ms = [x * 1e3 for x in latencies_s]
    percentile, tail_ms, beyond = tail(ms)
    return {"p50_ms": statistics.median(ms), "tail_ms": tail_ms,
            "tail_percentile": percentile, "tail_ops_beyond": beyond,
            "ops_per_s": len(ms) / math.fsum(latencies_s)}


def run_closed_loop(workload, seconds: float, import_s: float,
                    recorder=None, max_ops: Optional[int] = None
                    ) -> RunRecord:
    """Set the workload up, then time ops until *seconds* of op time.

    With a *recorder*, every other op (the even ones) is traced; the
    odd ones run with the wrappers idle, so the tracing overhead is
    measured against ops interleaved with the traced ones.
    """
    reps = []
    for rep in range(SETUP_REPS):
        start = perf_counter()
        workload.setup(rep)
        reps.append(perf_counter() - start)
    record = RunRecord(import_s=import_s, setup_reps_s=reps, latencies_s=[],
                       traced=[], digests=[])
    busy = 0.0
    i = 0
    while busy < seconds and (max_ops is None or i < max_ops):
        arg = workload.prepare(i)
        traced = recorder is not None and i % 2 == 0
        error = None
        out = None
        if traced:
            recorder.begin(i)
        start = perf_counter()
        try:
            out = workload.op(arg)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            error = f"op raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        if traced:
            recorder.end(i, start, end)
        busy += end - start
        record.latencies_s.append(end - start)
        record.traced.append(traced)
        digest = b""
        if error is None:
            try:
                digest, error = workload.check(i, arg, out)
            except Exception as exc:  # noqa: BLE001 - a failed check too
                error = f"check raised {type(exc).__name__}: {exc}"
        out = None  # drop the answer (and what it holds) before the next op
        record.digests.append(digest)
        if error is not None:
            record.errors[i] = error
        i += 1
    for op, error in workload.finish().items():
        record.errors.setdefault(op, error)
    record.extras = workload.layer_extras(i)
    return record
