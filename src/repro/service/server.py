"""The asyncio simulation job server.

Request lifecycle (see ``docs/service.md`` for the full walk-through):

1. **Validate + canonicalize** — malformed requests fail immediately;
   well-formed ones get a canonical identity key.
2. **Cache fast path** — a completed identical request in the attached
   :class:`~repro.runtime.cache.ResultCache` answers instantly.
3. **Dedup** — an identical request already in flight shares its
   future; one simulation answers every waiter.
4. **Admission control** — the bounded
   :class:`~repro.service.scheduler.DeadlineScheduler` either admits
   the entry or rejects it with a ``retry_after_s`` hint.
5. **Micro-batch + dispatch** — the dispatcher loop drains the queue
   through the :class:`~repro.service.batcher.MicroBatcher` onto the
   :class:`~repro.service.workers.ShardedWorkerTier`; worker crashes
   are retried with backoff.
6. **Respond** — per-request timeouts bound the wait; graceful
   shutdown drains in-flight work before tearing pools down.

`start_tcp_server` exposes the service over a JSON-lines TCP protocol
(one request object per line, ``id``-correlated concurrent responses)
— the transport behind ``python -m repro serve`` and
:class:`~repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Set

from repro import __version__ as REPRO_VERSION
from repro.obs.context import TraceContext
from repro.obs.slo import FlightRecorder
from repro.obs.tracer import get_tracer
from repro.runtime.cache import ResultCache, default_cache_dir, package_digest
from repro.service.batcher import Batch, MicroBatcher
from repro.service.metrics import ServiceMetrics
from repro.service.request import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    InvalidRequestError,
    SimRequest,
    SimResponse,
)
from repro.service.scheduler import (
    AdmissionError,
    DeadlineScheduler,
    ScheduledEntry,
    absolute_deadline,
)
from repro.service.workers import BatchExecutionError, ShardedWorkerTier
from repro.testkit.chaos import inject
from repro.testkit.clock import SYSTEM_CLOCK


def service_cache_dir() -> Path:
    """Default on-disk cache root for service results.

    A sibling of the experiment cache (``.../repro-suit/service``), so
    ``python -m repro.runtime.cache --prune`` can manage either.
    """
    return default_cache_dir().parent / "service"


def service_cache_key(request: SimRequest) -> str:
    """Content address of one request's result in the shared cache.

    Covers the canonical request identity, the package digest (any
    simulator change invalidates results) and the distribution version.
    """
    material = {
        "kind": "repro.service.result",
        "request": request.canonical_dict(),
        "package_digest": package_digest(),
        "version": REPRO_VERSION,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ServiceConfig:
    """Tunables of one :class:`SimulationService`.

    Attributes:
        n_shards: worker-pool shards (keyed by cpu/strategy).
        workers_per_shard: processes (or threads) per shard.
        use_processes: process pools (real isolation) vs thread pools
            (cheap; for tests and latency-insensitive embedding).
        max_queue_depth: admission bound of the scheduler.
        max_batch_size: micro-batch occupancy cap.
        batch_window_s: the longest an under-full batch waits for
            companions; it waits only while another request is running
            on a worker (a lone or interactive request dispatches at
            once).
        interactive_cutoff: priority at or below which a request is
            treated as interactive.
        max_retries: worker-crash retries per batch.
        retry_backoff_s: initial crash-retry backoff (doubles each try).
        default_timeout_s: per-request wait bound when the request
            carries no deadline.
        batch_timeout_s: hard bound on one batch execution (None: rely
            on per-request timeouts).
        retry_after_base_s: base of the backpressure retry hint.
        max_inflight_batches: dispatch concurrency bound; ``None``
            defaults to ``n_shards * workers_per_shard``, i.e. one
            batch per worker.  Keeping excess work in the scheduler
            (rather than in executor queues) is what makes priorities,
            deadlines and admission control real.
        share_traces: publish synthesized traces to the zero-copy
            shared trace store (:mod:`repro.workloads.tracestore`);
            worker processes attach read-only views instead of each
            re-synthesizing the trace.  The store is created on
            :meth:`SimulationService.start` and torn down after the
            drain in :meth:`SimulationService.stop`.
    """

    n_shards: int = 2
    workers_per_shard: int = 1
    use_processes: bool = True
    max_queue_depth: int = 128
    max_batch_size: int = 8
    batch_window_s: float = 0.005
    interactive_cutoff: int = 0
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    default_timeout_s: float = 60.0
    batch_timeout_s: Optional[float] = None
    retry_after_base_s: float = 0.05
    max_inflight_batches: Optional[int] = None
    share_traces: bool = False


class SimulationService:
    """The asyncio job server over the SUIT simulator.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly:

    .. code-block:: python

        async with SimulationService(ServiceConfig()) as service:
            response = await service.submit(SimRequest("C", "557.xz"))

    Args:
        config: tunables (defaults are sensible for tests).
        cache: optional result cache consulted before scheduling and
            filled after successful simulations.
        clock: time source threaded through the scheduler, batcher and
            tier; tests inject a :class:`~repro.testkit.clock.FakeClock`
            so windows/backoffs elapse in virtual time.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Optional[ResultCache] = None,
                 clock=SYSTEM_CLOCK) -> None:
        """See class docstring."""
        self.config = config or ServiceConfig()
        self.cache = cache
        self.clock = clock
        self.metrics = ServiceMetrics()
        self.scheduler = DeadlineScheduler(
            max_depth=self.config.max_queue_depth,
            retry_after_base_s=self.config.retry_after_base_s,
            clock=clock)
        self.batcher = MicroBatcher(
            self.scheduler, max_batch_size=self.config.max_batch_size,
            window_s=self.config.batch_window_s,
            interactive_cutoff=self.config.interactive_cutoff,
            clock=clock, inflight=lambda: len(self._inflight))
        self.tier = ShardedWorkerTier(
            n_shards=self.config.n_shards,
            workers_per_shard=self.config.workers_per_shard,
            use_processes=self.config.use_processes,
            max_retries=self.config.max_retries,
            retry_backoff_s=self.config.retry_backoff_s,
            metrics=self.metrics,
            clock=clock)
        #: Chrome-trace lane label of this service's spans.
        self.proc_name = f"service-{os.getpid()}"
        #: Exemplar keeper: the slowest and failed requests' trace ids,
        #: served by the ``trace`` verb for alert/dashboard links.
        self.flight = FlightRecorder()
        self._inflight: dict = {}
        self._batch_tasks: Set["asyncio.Task"] = set()
        self._dispatcher: Optional["asyncio.Task"] = None
        self._batch_slots: Optional["asyncio.Semaphore"] = None
        self._trace_store = None
        self._closed = False

    async def start(self) -> "SimulationService":
        """Start the dispatcher loop; idempotent."""
        if self._dispatcher is None:
            self._closed = False
            if self.config.share_traces and self._trace_store is None:
                # Activate before the first dispatch so lazily spawned
                # pool workers inherit the store's environment variable.
                from repro.workloads.tracestore import SharedTraceStore

                store = SharedTraceStore.create("service")
                store.activate()
                self._trace_store = store
            slots = (self.config.max_inflight_batches
                     if self.config.max_inflight_batches is not None
                     else self.config.n_shards
                     * self.config.workers_per_shard)
            self._batch_slots = asyncio.Semaphore(max(1, slots))
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop())
        return self

    async def __aenter__(self) -> "SimulationService":
        """Async context entry: :meth:`start`."""
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Async context exit: graceful :meth:`stop`."""
        await self.stop()

    @property
    def closed(self) -> bool:
        """True once shutdown began; submissions are rejected."""
        return self._closed

    @property
    def inflight(self) -> int:
        """Requests admitted but not yet answered (dedup groups count
        once — one simulation answers every waiter)."""
        return len(self._inflight)

    async def submit(self, request: SimRequest) -> SimResponse:
        """Answer one request (however long that takes, bounded by its
        deadline); never raises for per-request problems — bad input,
        backpressure, timeouts and failures all come back as statuses.

        When tracing is on, the whole submission becomes one
        ``service.submit`` span: continuing the request's ``trace_id``
        if a caller already minted one (the incoming ``parent_span``
        becomes this span's parent), minting a fresh trace otherwise.
        The span id rides to the worker tier via the scheduler entry,
        and the finished request lands in the flight recorder.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return await self._submit_inner(request, ctx=None)
        ctx = TraceContext.from_request(request.trace_id,
                                        request.parent_span)
        request = replace(request, trace_id=ctx.trace_id)
        start_s = tracer.now_s()
        response = await self._submit_inner(request, ctx=ctx)
        tracer.complete(
            "service.submit", "service", ts_s=start_s,
            dur_s=tracer.now_s() - start_s,
            args=ctx.args(proc=self.proc_name, status=response.status,
                          source=response.source))
        self.flight.record(ctx.trace_id, response.latency_s,
                           response.status, source=response.source)
        return response

    async def _submit_inner(self, request: SimRequest,
                            ctx: Optional[TraceContext]) -> SimResponse:
        """The untraced submission path (see :meth:`submit`)."""
        arrival = self.clock.monotonic()
        self.metrics.inc("requests_submitted")
        if self._closed:
            self.metrics.inc("requests_rejected")
            return SimResponse(request=request, status=STATUS_REJECTED,
                               error="service is shutting down",
                               retry_after_s=1.0)
        try:
            request.validate()
        except InvalidRequestError as exc:
            self.metrics.inc("requests_invalid")
            return SimResponse(request=request, status=STATUS_FAILED,
                               error=str(exc))
        key = request.canonical_key()

        cache_key: Optional[str] = None
        if self.cache is not None:
            cache_key = service_cache_key(request)
            payload = self.cache.get(cache_key)
            if payload is not None:
                self.metrics.inc("cache_hits")
                self.metrics.inc("requests_completed")
                latency = self.clock.monotonic() - arrival
                self.metrics.observe_latency(latency)
                return SimResponse(request=request, status=STATUS_OK,
                                   payload=payload, source="cache",
                                   latency_s=latency)

        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.inc("dedup_hits")
            return await self._await_outcome(existing, request, arrival,
                                             source="dedup")

        future: "asyncio.Future[dict]" = \
            asyncio.get_running_loop().create_future()
        entry = ScheduledEntry(request=request, future=future, key=key,
                               cache_key=cache_key,
                               due=absolute_deadline(request, now=arrival),
                               span_id=ctx.span_id if ctx else None)
        try:
            inject("server.admission", depth=self.scheduler.depth)
            self.scheduler.push(entry)
        except AdmissionError as exc:
            self.metrics.inc("requests_rejected")
            return SimResponse(request=request, status=STATUS_REJECTED,
                               error=str(exc),
                               retry_after_s=exc.retry_after_s)
        self._inflight[key] = future
        self.metrics.set_gauge("queue_depth", self.scheduler.depth)
        return await self._await_outcome(future, request, arrival,
                                         source="computed")

    async def _await_outcome(self, future: "asyncio.Future[dict]",
                             request: SimRequest, arrival: float,
                             source: str) -> SimResponse:
        """Wait (bounded) for *future* and shape it into a response."""
        timeout = (request.deadline_s if request.deadline_s is not None
                   else self.config.default_timeout_s)
        try:
            outcome = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self.metrics.inc("requests_timed_out")
            latency = self.clock.monotonic() - arrival
            return SimResponse(
                request=request, status=STATUS_TIMEOUT, source=source,
                error=f"no result within {timeout:.3f}s", latency_s=latency)
        latency = self.clock.monotonic() - arrival
        self.metrics.observe_latency(latency)
        status = STATUS_OK if outcome.get("status") == "ok" else STATUS_FAILED
        self.metrics.inc("requests_completed" if status == STATUS_OK
                         else "requests_failed")
        return SimResponse(
            request=request, status=status,
            payload=outcome.get("payload"), error=outcome.get("error"),
            source=source, latency_s=latency,
            retries=int(outcome.get("retries", 0)))

    async def _dispatch_loop(self) -> None:
        """Forever: build the next batch and launch its execution task.

        Bounded by the batch-slot semaphore: when every worker already
        has a batch, the loop blocks and requests accumulate in the
        scheduler — where priority ordering and admission control
        apply — instead of in executor queues where they would not.
        """
        assert self._batch_slots is not None
        while True:
            await self._batch_slots.acquire()
            try:
                batch = await self.batcher.next_batch()
            except BaseException:
                self._batch_slots.release()
                raise
            self.metrics.set_gauge("queue_depth", self.scheduler.depth)
            self.metrics.inc("batches_dispatched")
            self.metrics.observe_batch(batch.occupancy)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant("batch formed", "service",
                               args={"occupancy": batch.occupancy,
                                     "shard": batch.shard_key,
                                     "queue_depth": self.scheduler.depth})
            task = asyncio.get_running_loop().create_task(
                self._run_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: Batch) -> None:
        """Execute one batch on the tier and resolve its futures.

        Traced entries dispatch with ``parent_span`` rewritten to the
        submission span's id, so the worker-side ``worker.execute``
        span parents on it.  Thread-tier workers record that span
        themselves (shared tracer); for process-pool workers — whose
        tracer lives in another process — it is synthesized here from
        the outcome's ``wall_time_s``, anchored at batch dispatch.
        """
        tracer = get_tracer()
        batch_start = tracer.now_s() if tracer.enabled else 0.0
        requests = []
        for entry in batch.entries:
            req = entry.request.to_dict()
            if entry.span_id is not None:
                req["parent_span"] = entry.span_id
            requests.append(req)
        try:
            outcomes, retries = await self.tier.run_batch(
                batch.shard_key, requests,
                timeout_s=self.config.batch_timeout_s)
        except (BatchExecutionError, asyncio.TimeoutError) as exc:
            self.metrics.inc("batch_failures")
            outcomes = [{"status": "failed", "error": str(exc),
                         "payload": None} for _ in batch.entries]
            retries = self.config.max_retries
        finally:
            if self._batch_slots is not None:
                self._batch_slots.release()
        if retries:
            self.metrics.inc("batch_retries", retries)
            if tracer.enabled:
                tracer.instant("worker retry", "service",
                               args={"shard": batch.shard_key,
                                     "retries": retries})
        for entry, outcome in zip(batch.entries, outcomes):
            self.metrics.inc("simulations_executed")
            if (tracer.enabled and entry.request.trace_id
                    and not outcome.get("span_recorded")):
                ctx = TraceContext.from_request(entry.request.trace_id,
                                                entry.span_id)
                tracer.complete(
                    "worker.execute", "service", ts_s=batch_start,
                    dur_s=float(outcome.get("wall_time_s") or 0.0),
                    args=ctx.args(
                        proc=f"worker:{outcome.get('worker', '?')}",
                        status=outcome.get("status"), synthesized=True))
            if (self.cache is not None and entry.cache_key is not None
                    and outcome.get("status") == "ok"
                    and outcome.get("payload") is not None):
                try:
                    self.cache.put(entry.cache_key, outcome["payload"])
                except OSError:
                    # A cache that cannot be written must not fail the
                    # request — the computed payload is still correct.
                    self.metrics.inc("cache_put_failures")
            if self._inflight.get(entry.key) is entry.future:
                del self._inflight[entry.key]
            if not entry.future.done():
                entry.future.set_result({**outcome, "retries": retries})

    async def stop(self, drain: bool = True,
                   timeout_s: float = 30.0) -> None:
        """Stop the service; with *drain*, finish admitted work first.

        New submissions are rejected immediately; queued and in-flight
        requests are completed (bounded by *timeout_s*), then the
        dispatcher is cancelled and the worker pools shut down.  Without
        *drain*, queued entries are failed with a shutdown error.
        """
        self._closed = True
        if not drain:
            for entry in self.scheduler.drain():
                self._inflight.pop(entry.key, None)
                if not entry.future.done():
                    entry.future.set_result({
                        "status": "failed", "payload": None,
                        "error": "service stopped before execution"})
        deadline = self.clock.monotonic() + timeout_s
        while (drain and (self.scheduler.depth or self._batch_tasks
                          or self._inflight)
               and self.clock.monotonic() < deadline):
            await self.clock.sleep(0.005)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks),
                                 return_exceptions=True)
        for key, future in list(self._inflight.items()):
            if not future.done():
                future.set_result({"status": "failed", "payload": None,
                                   "error": "service stopped"})
            self._inflight.pop(key, None)
        self.tier.shutdown(wait=False)
        if self._trace_store is not None:
            store, self._trace_store = self._trace_store, None
            store.deactivate()
            store.cleanup()


async def _handle_message(service: SimulationService, message: dict,
                          writer: "asyncio.StreamWriter",
                          lock: "asyncio.Lock") -> None:
    """Answer one decoded protocol message on *writer*."""
    msg_id = message.get("id")
    op = message.get("op", "submit")
    if op == "submit":
        try:
            request = SimRequest.from_dict(message.get("request") or {})
            # Validate at the protocol boundary: a type-corrupt field
            # (say voltage_offset: null) passes from_dict but would
            # make the response echo un-serializable, leaving the
            # client without any reply at all.
            request.validate()
        except InvalidRequestError as exc:
            out = {"op": "error", "error": str(exc)}
        else:
            response = await service.submit(request)
            out = response.to_dict()
            out["op"] = "response"
    elif op == "metrics":
        if message.get("format") == "prometheus":
            out = {"op": "metrics", "format": "prometheus",
                   "text": service.metrics.prometheus_text()}
        else:
            out = {"op": "metrics", "metrics": service.metrics.snapshot()}
    elif op == "trace":
        tracer = get_tracer()
        out = {"op": "trace", "enabled": tracer.enabled,
               "proc": service.proc_name,
               "origin_unix_s": tracer.origin_unix_s,
               "events": [event.to_chrome() for event in tracer.events()],
               "flight": service.flight.to_json_dict()}
    elif op == "health":
        # The cheap control-plane signals: what a supervisor polls
        # without paying for a full metrics snapshot.
        out = {"op": "health",
               "status": "draining" if service.closed else "ok",
               "queue_depth": service.scheduler.depth,
               "inflight": service.inflight,
               "version": REPRO_VERSION}
    elif op == "drain":
        # Stop admitting, finish accepted work, tear the tier down;
        # the reply is the drain-complete acknowledgement a supervisor
        # waits for before terminating the process.
        await service.stop(drain=True)
        out = {"op": "drain", "status": "stopped"}
    elif op == "ping":
        out = {"op": "pong", "version": REPRO_VERSION}
    else:
        out = {"op": "error", "error": f"unknown op {op!r}"}
    if msg_id is not None:
        out["id"] = msg_id
    try:
        async with lock:
            writer.write(json.dumps(out).encode("utf-8") + b"\n")
            await writer.drain()
    except (ConnectionError, RuntimeError):
        pass  # peer went away mid-response; nothing to answer anymore


async def _handle_connection(service: SimulationService,
                             reader: "asyncio.StreamReader",
                             writer: "asyncio.StreamWriter") -> None:
    """Serve one JSON-lines connection; messages run concurrently."""
    lock = asyncio.Lock()
    tasks: Set["asyncio.Task"] = set()
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                for kind in inject("server.frame", size=len(line)):
                    if kind == "garble":
                        # Invalid UTF-8 in byte 0: the frame parser
                        # must answer "bad json", not die.
                        line = b"\xff" + line[1:]
            except ConnectionError:
                break  # injected connection drop
            try:
                message = json.loads(line)
            except ValueError:
                async with lock:
                    writer.write(b'{"op": "error", "error": "bad json"}\n')
                    await writer.drain()
                continue
            if not isinstance(message, dict):
                # json.loads happily returns scalars and arrays; only
                # objects are protocol frames.
                async with lock:
                    writer.write(b'{"op": "error", '
                                 b'"error": "frame must be a JSON object"}\n')
                    await writer.drain()
                continue
            task = asyncio.get_running_loop().create_task(
                _handle_message(service, message, writer, lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*list(tasks), return_exceptions=True)
    finally:
        try:
            writer.close()
        except RuntimeError:
            pass


async def start_tcp_server(service: SimulationService,
                           host: str = "127.0.0.1",
                           port: int = 0,
                           connections: Optional[Set] = None
                           ) -> "asyncio.AbstractServer":
    """Expose *service* over JSON-lines TCP; returns the asyncio server.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.sockets[0].getsockname()[1]``.  When *connections* is
    given, every live connection's writer is tracked in it, so a
    caller can abort those transports to reset its peers exactly like
    a process death would.
    """
    async def handler(reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        if connections is not None:
            connections.add(writer)
        try:
            await _handle_connection(service, reader, writer)
        except asyncio.CancelledError:
            # Event-loop teardown cancels live connection handlers;
            # dying quietly beats a traceback per connection.
            pass
        finally:
            if connections is not None:
                connections.discard(writer)

    return await asyncio.start_server(handler, host=host, port=port)
