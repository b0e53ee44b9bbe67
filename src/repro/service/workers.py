"""The sharded worker tier: where simulations actually execute.

Shards are keyed by the request's ``shard_key`` (CPU model + strategy)
so one worker pool repeatedly simulates the same CPU — its process's
trace cache (:func:`~repro.workloads.tracecache.cached_trace`) stays
hot, which is most of a warm request's cost.

A request decodes to its :class:`~repro.core.suit.OperatingPoint`
(:attr:`~repro.service.request.SimRequest.point`) and is simulated by
:func:`~repro.core.suit.evaluate`.  :func:`execute_batch` hands each
group of points that share a trace and a deadline to one ``evaluate``
call, which runs them as one sweep.

Robustness: a worker process dying (OOM-kill, segfault, the fault-
injection hook below) surfaces as ``BrokenProcessPool`` on the batch
future.  The tier recycles the broken pool and retries the batch with
exponential backoff, up to ``max_retries`` times, then raises
:class:`BatchExecutionError` so the server can fail the affected
requests explicitly instead of hanging their futures.

Fault-injection hooks (test/benchmark surface, mirroring the paper's
own fault-injection methodology):

* ``__crash__:<path>`` — if ``<path>`` does not exist, create it and
  kill the worker process with ``os._exit``; on retry the sentinel
  exists and the request completes.  Verifies transparent retry.
* ``__sleep__:<seconds>`` — hold a worker for that long; used to build
  saturation and timeout scenarios deterministically.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, Executor, Future
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.suit import OperatingPoint, evaluate
from repro.obs.context import TraceContext
from repro.obs.tracer import get_tracer
from repro.runtime import serialization
from repro.service.metrics import ServiceMetrics
from repro.service.request import SimRequest
from repro.testkit.chaos import CRASH_EXIT_CODE, inject
from repro.testkit.clock import SYSTEM_CLOCK

#: Workload-name prefixes of the fault-injection hooks.
CRASH_PREFIX = "__crash__:"
SLEEP_PREFIX = "__sleep__:"


class BatchExecutionError(RuntimeError):
    """A batch failed after exhausting its worker-crash retries."""


def _simulate(req: dict) -> dict:
    """Run one request's simulation; returns the jsonified SimResult."""
    workload = req["workload"]
    if workload.startswith(CRASH_PREFIX):
        sentinel = Path(workload[len(CRASH_PREFIX):])
        if not sentinel.exists():
            sentinel.write_text("crashed once\n", encoding="utf-8")
            os._exit(3)  # simulate a hard worker death (no cleanup)
        return {"workload": workload, "crash_recovered": True}
    if workload.startswith(SLEEP_PREFIX):
        seconds = float(workload[len(SLEEP_PREFIX):])
        time.sleep(seconds)
        return {"workload": workload, "slept_s": seconds}
    [result] = evaluate([SimRequest.from_dict(req).point])
    return serialization.jsonify(result)


def _worker_name() -> str:
    """The executing worker's identity: the pool process's name, or the
    pool thread's name when running in the thread tier (where every
    "process" is MainProcess and the thread is the useful label)."""
    name = multiprocessing.current_process().name
    if name == "MainProcess":
        return threading.current_thread().name
    return name


def execute_request(req: dict) -> dict:
    """Execute one request dict; never raises (failures become outcomes).

    Returns an outcome dict: ``{"status", "payload", "error",
    "wall_time_s", "worker"}`` — the same shape the engine's pool
    workers return, so the server can treat both uniformly.

    When the process-wide tracer is recording and the request carries a
    ``trace_id``, the execution is recorded as a ``worker.execute``
    span parented on the dispatcher's span, and the outcome is marked
    ``span_recorded`` so the server does not synthesize a duplicate.
    (Process-pool workers have their own disabled tracer, so there the
    mark stays absent and the server synthesizes the span instead.)
    """
    start = time.perf_counter()
    worker = _worker_name()
    try:
        inject("workers.request", workload=req.get("workload"))
        payload: Optional[dict] = _simulate(req)
        status, error = "ok", None
    except BaseException:  # noqa: BLE001 - the traceback is the answer
        payload, status = None, "failed"
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    outcome = {"status": status, "payload": payload, "error": error,
               "wall_time_s": wall, "worker": worker}
    tracer = get_tracer()
    if tracer.enabled and req.get("trace_id"):
        ctx = TraceContext.from_request(req.get("trace_id"),
                                        req.get("parent_span"))
        tracer.complete(
            "worker.execute", "service",
            ts_s=tracer.now_s() - wall, dur_s=wall,
            args=ctx.args(proc=f"worker:{worker}", status=status,
                          workload=req.get("workload")))
        outcome["span_recorded"] = True
    return outcome


def _grouped_point(req: dict) -> Optional[OperatingPoint]:
    """*req*'s operating point, or None when it must run alone.

    Fault-injection hooks and requests that do not decode to a valid
    point take the per-request path, whose error isolation is the
    answer for them.
    """
    workload = req.get("workload")
    if (not isinstance(workload, str)
            or workload.startswith((CRASH_PREFIX, SLEEP_PREFIX))):
        return None
    try:
        point = SimRequest.from_dict(req).point
        point.validate()
    except ValueError:
        return None
    return point


def execute_batch(requests: List[dict]) -> List[dict]:
    """Execute a batch of request dicts in submission order.

    Runs inside a pool worker.  Requests whose points share a
    :meth:`~repro.core.suit.OperatingPoint.sweep_key` — same ``(cpu,
    workload, seed, n_cores, deadline_us)`` — go to **one**
    :func:`~repro.core.suit.evaluate` call, which runs them as one
    sweep over the shared compiled episode instead of simulating each
    from scratch; the trace arrays are never serialized per request.
    If a group fails, its members are retried individually through
    :func:`execute_request`, whose per-request failure isolation means
    one bad request cannot poison its batch siblings (a hard process
    death, of course, still can — that is what the tier-level retry
    handles).
    """
    inject("workers.batch", size=len(requests))
    outcomes: List[Optional[dict]] = [None] * len(requests)
    points: Dict[int, OperatingPoint] = {}
    groups: Dict[tuple, List[int]] = {}
    for i, req in enumerate(requests):
        point = _grouped_point(req)
        if point is None:
            outcomes[i] = execute_request(req)
        else:
            points[i] = point
            groups.setdefault(point.sweep_key(), []).append(i)
    for members in groups.values():
        start = time.perf_counter()
        worker = _worker_name()
        try:
            payloads = serialization.jsonify(
                evaluate([points[i] for i in members]))
        except BaseException:  # noqa: BLE001 - fall back to isolation
            for i in members:
                outcomes[i] = execute_request(requests[i])
            continue
        wall = time.perf_counter() - start
        for i, payload in zip(members, payloads):
            outcomes[i] = {"status": "ok", "payload": payload,
                           "error": None, "wall_time_s": wall,
                           "worker": worker, "vectorized": True,
                           "group_width": len(members)}
    return outcomes


def shard_index(shard_key: str, n_shards: int) -> int:
    """Stable shard assignment: sha256(shard_key) mod n_shards."""
    digest = hashlib.sha256(shard_key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % max(1, n_shards)


class ShardedWorkerTier:
    """A fixed set of worker pools, one per shard, with crash retries.

    Args:
        n_shards: number of independent pools; requests map to shards
            by :func:`shard_index` of their shard key.
        workers_per_shard: pool width per shard.
        use_processes: ``True`` for :class:`ProcessPoolExecutor` (real
            isolation, crash-retry works), ``False`` for threads (fast
            unit tests, no process spawn cost).
        max_retries: batch re-executions allowed after pool breakage.
        retry_backoff_s: initial backoff; doubles per retry.
        metrics: optional registry for ``worker_restarts`` counts.
        clock: time source for retry backoff (tests inject a
            :class:`~repro.testkit.clock.FakeClock`).
    """

    def __init__(self, n_shards: int = 2, workers_per_shard: int = 1,
                 use_processes: bool = True, max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 metrics: Optional[ServiceMetrics] = None,
                 clock=SYSTEM_CLOCK) -> None:
        """See class docstring."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if workers_per_shard < 1:
            raise ValueError("workers_per_shard must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.n_shards = n_shards
        self.workers_per_shard = workers_per_shard
        self.use_processes = use_processes
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.metrics = metrics
        self.clock = clock
        self._pools: Dict[int, Executor] = {}

    def _make_pool(self) -> Executor:
        """Create one shard's executor."""
        if self.use_processes:
            return ProcessPoolExecutor(max_workers=self.workers_per_shard)
        return ThreadPoolExecutor(max_workers=self.workers_per_shard,
                                  thread_name_prefix="repro-service")

    def _pool(self, index: int) -> Executor:
        """The (lazily created) executor of shard *index*."""
        pool = self._pools.get(index)
        if pool is None:
            pool = self._make_pool()
            self._pools[index] = pool
        return pool

    def _recycle(self, index: int) -> None:
        """Tear down and forget shard *index*'s broken pool."""
        pool = self._pools.pop(index, None)
        if pool is not None:
            pool.shutdown(wait=False)
            if self.metrics is not None:
                self.metrics.inc("worker_restarts")

    async def run_batch(self, shard_key: str, requests: List[dict],
                        timeout_s: Optional[float] = None
                        ) -> Tuple[List[dict], int]:
        """Execute *requests* on the shard owning *shard_key*.

        Returns ``(outcomes, retries_used)``.  Raises
        :class:`BatchExecutionError` when every attempt broke the pool,
        and :class:`asyncio.TimeoutError` when *timeout_s* elapses.
        """
        index = shard_index(shard_key, self.n_shards)
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            pool = self._pool(index)
            try:
                for kind in inject("workers.dispatch", shard=index,
                                   size=len(requests)):
                    if kind == "kill_worker" and self.use_processes:
                        # Hard-kill one pool worker right before the
                        # batch lands on it: the canonical mid-batch
                        # crash.  The thread tier has no process to
                        # kill, so the fault is a no-op there by design.
                        pool.submit(os._exit, CRASH_EXIT_CODE)
                # A pool whose worker died after the previous batch
                # finished refuses the submit itself: recycle it too.
                future: Future = pool.submit(execute_batch, requests)
                outcomes = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout_s)
                return outcomes, attempt
            except asyncio.TimeoutError:
                future.cancel()
                raise
            except BrokenExecutor as exc:
                last_error = exc
                self._recycle(index)
                if attempt < self.max_retries:
                    await self.clock.sleep(
                        self.retry_backoff_s * (2 ** attempt))
        raise BatchExecutionError(
            f"batch on shard {index} ({shard_key}) failed after "
            f"{self.max_retries + 1} attempts: {last_error!r}")

    def shutdown(self, wait: bool = True) -> None:
        """Shut down every shard's pool."""
        for pool in self._pools.values():
            pool.shutdown(wait=wait)
        self._pools.clear()
