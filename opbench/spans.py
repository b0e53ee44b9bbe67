"""Spans recorded from the benchmark's own wrappers around each layer.

The traced run replaces a fixed set of the program's public functions,
at the names their callers look up, with wrappers that record
``(name, start, end, op id)`` while a traced op is in flight and call
straight through otherwise.  Nothing inside ``src/`` changes, and the
program's own ``repro.obs`` tracer stays disabled: turning it on sends
``simulate_sweep`` down the scalar simulator, which would change the
code path being measured.

Spans are kept in memory.  When the run ends, each span's parent is the
innermost span of the same op that contains it, and its self time is its
duration minus the part covered by its children.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Span name -> the per-layer metric that reports its mean self time
#: per traced op.  The layers' self times plus ``op.unattributed_ms``
#: add up to the op's wall time.
SELF_TIME_METRICS = {
    "workloads.generate_trace": "workloads.generate_trace.self_ms",
    "core.run_profile": "core.run_profile.self_ms",
    "core.trace_simulator": "core.trace_simulator.self_ms",
    "core.compile_episode": "core.compile_episode.self_ms",
    "core.simulate_sweep": "core.simulate_sweep.self_ms",
    "runtime.cache_get": "runtime.cache_get.self_ms",
    "runtime.cache_put": "runtime.cache_put.self_ms",
    "runtime.cache_prune": "runtime.cache_prune.self_ms",
    "runtime.jsonify": "runtime.jsonify.self_ms",
    "service.queue_wait": "service.queue_wait_ms",
    "service.batch_hold": "service.batch_hold_ms",
    "service.run_batch": "service.handoff_ms",
    "service.execute_batch": "service.execute_batch.self_ms",
    "dse.evaluate": "dse.evaluate.self_ms",
    "dse.security_headroom": "dse.security_headroom.self_ms",
    "dse.pareto": "dse.pareto.self_ms",
    "dse.hypervolume": "dse.hypervolume.self_ms",
    "dse.runner": "dse.runner.self_ms",
    "dse.write_outputs": "dse.write_outputs.self_ms",
}

#: Span name -> the per-layer metric that reports its calls per op.
CALL_METRICS = {
    "workloads.generate_trace": "workloads.generate_trace.calls",
    "core.compile_episode": "core.compile_episode.calls",
    "core.simulate_sweep": "core.simulate_sweep.calls",
    "runtime.cache_get": "runtime.cache_get.calls",
    "runtime.cache_put": "runtime.cache_put.calls",
}

#: Name of the span the harness records around each whole op.
OP_SPAN = "op"


class SpanRecorder:
    """In-memory spans and counts of the ops traced in one run.

    Attributes:
        op: id of the traced op in flight, or None (wrappers idle).
        spans: ``(name, start_s, end_s, op)`` in recording order.
        counts: ``(op, name) -> value`` counters bumped by wrappers.
        marks: timestamps shared between the service wrappers for the
            op in flight (its submit start, the pop that took it).
    """

    def __init__(self) -> None:
        self.op: Optional[int] = None
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.marks: Dict[str, float] = {}
        self._local = threading.local()

    def begin(self, op: int) -> None:
        """Start recording for op *op*."""
        self.marks.clear()
        self.op = op

    def end(self, op: int, start: float, end: float) -> None:
        """Close op *op*, recording its whole-op span."""
        self.op = None
        self.spans.append((OP_SPAN, start, end, op))

    def count(self, op: int, name: str, value: float = 1.0) -> None:
        """Add *value* to counter *name* of *op*."""
        self.counts[(op, name)] += value

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, outermost: bool = False, after=None):
        """Wrap a synchronous callable in a span named *name*.

        With *outermost*, calls made while the same wrapper is already
        on this thread's stack (recursion) are not recorded again.
        *after(op, args, kwargs, result)* runs after a recorded call.
        """
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None or (outermost and getattr(local, name, False)):
                return fn(*args, **kwargs)
            if outermost:
                setattr(local, name, True)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, perf_counter(), op))
                if outermost:
                    setattr(local, name, False)
            if after is not None:
                after(op, args, kwargs, result)
            return result
        return wrapper

    def timed_async(self, name: str, fn, mark: Optional[str] = None):
        """Wrap a coroutine function in a span named *name*; *mark*
        also stores the span's start under that key of :attr:`marks`."""
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return await fn(*args, **kwargs)
            start = perf_counter()
            if mark is not None:
                self.marks[mark] = start
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, perf_counter(), op))
        return wrapper

    def ended_at(self, name: str, fn, since: str, mark: Optional[str] = None):
        """Wrap a coroutine function so that, when it returns during a
        traced op, a span *name* is recorded from the mark *since* to
        now (and now is stored as mark *mark*).

        The service's dispatcher awaits the scheduler before a request
        exists, so these waits are timed from the request's side: the
        queue wait from its submit to the pop that takes it, the batch
        hold from that pop to the batch being handed out.
        """
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            result = await fn(*args, **kwargs)
            op = self.op
            if op is not None:
                now = perf_counter()
                start = self.marks.pop(since, None)
                if start is not None:
                    self.spans.append((name, start, now, op))
                if mark is not None:
                    self.marks[mark] = now
            return result
        return wrapper

    def counted(self, name: str, fn):
        """Wrap a callable so each call during a traced op bumps the
        counter *name* (no span)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is not None:
                self.count(op, name)
            return fn(*args, **kwargs)
        return wrapper

    # -- analysis -----------------------------------------------------------

    def by_op(self) -> Dict[int, List[Tuple[str, float, float]]]:
        """Spans grouped by op id, each group in recording order."""
        groups: Dict[int, List[Tuple[str, float, float]]] = defaultdict(list)
        for name, start, end, op in self.spans:
            groups[op].append((name, start, end))
        return dict(groups)

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line (times in ms from *origin*,
        ``parent`` the index of the parent span within its op)."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, spans in sorted(self.by_op().items()):
                parents, _ = self_times(spans)
                for i, (name, start, end) in enumerate(spans):
                    handle.write(json.dumps({
                        "op": op, "i": i, "name": name,
                        "parent": parents[i],
                        "start_ms": (start - origin) * 1e3,
                        "end_ms": (end - origin) * 1e3}) + "\n")


def self_times(spans: List[Tuple[str, float, float]]
               ) -> Tuple[List[Optional[int]], List[float]]:
    """Parent index and self time (seconds) of each span of one op.

    A span's parent is the innermost span containing it; its self time
    is its duration minus the union of its children's intervals.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][1], -spans[i][2], i))
    parents: List[Optional[int]] = [None] * len(spans)
    children: Dict[int, List[int]] = defaultdict(list)
    stack: List[int] = []
    for i in order:
        _, start, end = spans[i]
        while stack and not (spans[stack[-1]][1] <= start
                             and end <= spans[stack[-1]][2]):
            stack.pop()
        if stack:
            parents[i] = stack[-1]
            children[stack[-1]].append(i)
        stack.append(i)
    selfs = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children.get(i, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        selfs.append((end - start) - covered)
    return parents, selfs


def install_layer_probes(recorder: SpanRecorder) -> "Patches":
    """Wrap each layer's public entry points where the program looks
    them up; returns the patches (call ``restore()`` to undo)."""
    import repro.core.batchsim as batchsim
    import repro.core.simulator as simulator
    import repro.core.suit as suit
    import repro.dse.evaluate as dse_evaluate
    import repro.dse.pareto as pareto
    import repro.dse.runner as dse_runner
    import repro.runtime.cache as cache
    import repro.runtime.serialization as serialization
    import repro.service.batcher as batcher
    import repro.service.scheduler as scheduler
    import repro.service.server as server
    import repro.service.workers as workers
    import repro.workloads.generator as generator
    import repro.workloads.tracecache as tracecache

    rec = recorder
    patches = Patches()

    generate = rec.timed("workloads.generate_trace", generator.generate_trace)
    patches.set(generator, "generate_trace", generate)
    patches.set(tracecache, "generate_trace", generate)
    cached = rec.counted("workloads.cached_trace", tracecache.cached_trace)
    patches.set(tracecache, "cached_trace", cached)
    patches.set(suit, "cached_trace", cached)

    patches.set(suit.SuitSystem, "run_profile",
                rec.timed("core.run_profile", suit.SuitSystem.run_profile))
    patches.set(simulator.TraceSimulator, "run",
                rec.timed("core.trace_simulator",
                          simulator.TraceSimulator.run))
    patches.set(batchsim, "compile_episode",
                rec.timed("core.compile_episode", batchsim.compile_episode))

    def sweep_configs(op, args, kwargs, result):
        rec.count(op, "core.simulate_sweep.configs", len(result))

    sweep = rec.timed("core.simulate_sweep", batchsim.simulate_sweep,
                      after=sweep_configs)
    patches.set(batchsim, "simulate_sweep", sweep)
    patches.set(suit, "simulate_sweep", sweep)

    def cache_hit(op, args, kwargs, result):
        if result is not None:
            rec.count(op, "runtime.cache_get.hits")

    patches.set(cache.ResultCache, "get",
                rec.timed("runtime.cache_get", cache.ResultCache.get,
                          after=cache_hit))
    patches.set(cache.ResultCache, "put",
                rec.timed("runtime.cache_put", cache.ResultCache.put))
    patches.set(cache.ResultCache, "prune",
                rec.timed("runtime.cache_prune", cache.ResultCache.prune))
    patches.set(serialization, "jsonify",
                rec.timed("runtime.jsonify", serialization.jsonify,
                          outermost=True))

    patches.set(server.SimulationService, "submit",
                rec.timed_async("service.submit",
                                server.SimulationService.submit,
                                mark="submitted"))
    patches.set(scheduler.DeadlineScheduler, "pop",
                rec.ended_at("service.queue_wait",
                             scheduler.DeadlineScheduler.pop,
                             since="submitted", mark="popped"))
    patches.set(batcher.MicroBatcher, "next_batch",
                rec.ended_at("service.batch_hold",
                             batcher.MicroBatcher.next_batch,
                             since="popped"))
    patches.set(workers.ShardedWorkerTier, "run_batch",
                rec.timed_async("service.run_batch",
                                workers.ShardedWorkerTier.run_batch))
    patches.set(workers, "execute_batch",
                rec.timed("service.execute_batch", workers.execute_batch))

    def memo(op, args, kwargs, result):
        rec.count(op, "dse.lookups", len(result))
        # A fresh backend per search: its running total is the op's.
        rec.counts[(op, "dse.memo_hits")] = args[0].memo_hits

    patches.set(dse_evaluate.LocalEvalBackend, "evaluate",
                rec.timed("dse.evaluate",
                          dse_evaluate.LocalEvalBackend.evaluate,
                          after=memo))
    patches.set(dse_evaluate, "security_headroom_mv",
                rec.timed("dse.security_headroom",
                          dse_evaluate.security_headroom_mv))
    for fn_name in ("non_dominated_sort", "crowding_distance",
                    "pareto_front_indices"):
        patches.set(pareto, fn_name,
                    rec.timed("dse.pareto", getattr(pareto, fn_name)))
    patches.set(pareto, "hypervolume",
                rec.timed("dse.hypervolume", pareto.hypervolume))
    patches.set(dse_runner.DseRunner, "run",
                rec.timed("dse.runner", dse_runner.DseRunner.run))
    patches.set(dse_runner.DseRunner, "write_outputs",
                rec.timed("dse.write_outputs",
                          dse_runner.DseRunner.write_outputs))
    return patches


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` with *value*, remembering the original."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(recorder: SpanRecorder,
                  op_self_metric: Optional[str] = None) -> Dict[str, float]:
    """Per-layer metrics, averaged per traced op.

    *op_self_metric* names the metric that takes the whole-op span's
    self time (``service.protocol_ms`` for the service round trip);
    otherwise that time, and the self time of any span without a
    metric, is ``op.unattributed_ms``.
    """
    groups = recorder.by_op()
    n_ops = len(groups)
    if not n_ops:
        return {}
    sums: Dict[str, float] = defaultdict(float)
    for spans in groups.values():
        _, selfs = self_times(spans)
        wall = attributed = 0.0
        for (name, start, end), own in zip(spans, selfs):
            if name == OP_SPAN:
                wall = end - start
                metric = op_self_metric
            else:
                metric = SELF_TIME_METRICS.get(name)
            if metric is not None:
                sums[metric] += own * 1e3
                attributed += own
            if name in CALL_METRICS:
                sums[CALL_METRICS[name]] += 1
        sums["op.unattributed_ms"] += (wall - attributed) * 1e3
    for (_, name), value in recorder.counts.items():
        sums[name] += value
    metrics = {name: value / n_ops for name, value in sums.items()}

    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    cached_calls = sums["workloads.cached_trace"]
    metrics["workloads.cached_trace.hit_ratio"] = ratio(
        max(cached_calls - sums["workloads.generate_trace.calls"], 0.0),
        cached_calls)
    metrics["core.simulate_sweep.ms_per_config"] = ratio(
        sums["core.simulate_sweep.self_ms"],
        sums["core.simulate_sweep.configs"])
    metrics["runtime.cache.hit_ratio"] = ratio(
        sums["runtime.cache_get.hits"], sums["runtime.cache_get.calls"])
    metrics["dse.memo_hit_ratio"] = ratio(sums["dse.memo_hits"],
                                          sums["dse.lookups"])
    return metrics
