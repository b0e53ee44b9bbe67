"""The fleet gateway: one JSON-lines front door over N service nodes.

The gateway speaks the *same* protocol as a single
:class:`~repro.service.server.SimulationService` — a client cannot
tell (and must not care) whether it connected to one node or a fleet.
Behind the socket:

* **Routing** — a :class:`~repro.fleet.ring.ConsistentHashRing` on
  :func:`~repro.fleet.ring.route_key` ``(cpu, workload)`` sends equal
  questions to the same node, keeping that node's trace and result
  caches hot and its in-flight dedup effective
  fleet-wide.
* **Forwarding** — per-node pools of pipelined
  :class:`~repro.service.client.ServiceClient` connections; one
  connection carries many concurrent requests.
* **Reroute** — a forward that dies (connection reset, refused,
  timeout) walks the ring's preference order to the next node,
  bounded by ``max_forward_attempts``.  Simulation requests are pure,
  so the resend is safe by construction; every reroute is counted in
  ``fleet_reroutes_total{reason}``.
* **Health** — a background loop pings every node; after
  ``health_fail_threshold`` consecutive failures the node leaves the
  ring (it stays in the member table and rejoins on recovery).
* **Fan-out** — the ``metrics`` and ``trace`` verbs aggregate every
  node's answer next to the gateway's own; Prometheus rendering
  exposes the gateway's fleet families (size, per-node inflight,
  reroutes, forward latency).

Chaos sites (:func:`repro.testkit.chaos.inject`): ``fleet.route`` on
every routing decision, ``fleet.forward`` on every node forward,
``fleet.health`` on every health probe — the hooks
:class:`~repro.fleet.soak.FleetSoak` attacks.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set

from repro import __version__ as REPRO_VERSION
from repro.obs.context import TraceContext, merge_process_traces
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import MetricsRegistry, latency_bounds
from repro.obs.slo import FlightRecorder
from repro.obs.timeseries import histogram_delta, percentile_of
from repro.obs.tracer import get_tracer
from repro.service.client import ServiceClient
from repro.service.request import (
    STATUS_FAILED,
    InvalidRequestError,
    SimRequest,
    SimResponse,
)
from repro.testkit.chaos import inject
from repro.testkit.clock import SYSTEM_CLOCK

#: ``source`` value of responses the gateway failed without an answer.
SOURCE_GATEWAY = "gateway"


@dataclass
class GatewayConfig:
    """Tunables of one :class:`FleetGateway`.

    Attributes:
        max_forward_attempts: distinct nodes tried per request before
            the gateway gives up and fails it explicitly.
        forward_timeout_s: per-forward bound when the request carries
            no deadline (a node that neither answers nor resets must
            not wedge the gateway).
        pool_size: pipelined connections kept per node.
        health_interval_s: delay between health sweeps.
        health_timeout_s: per-probe bound.
        health_fail_threshold: consecutive probe failures that demote
            a node out of the ring.
        ring_replicas: virtual points per node on the hash ring.
    """

    max_forward_attempts: int = 3
    forward_timeout_s: float = 30.0
    pool_size: int = 2
    health_interval_s: float = 0.25
    health_timeout_s: float = 2.0
    health_fail_threshold: int = 2
    ring_replicas: int = 128


class _NodeState:
    """The gateway's book-keeping for one member node."""

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.healthy = True
        self.consecutive_failures = 0
        self.inflight = 0
        self.clients: List[ServiceClient] = []
        self.next_client = 0
        self.connect_lock = asyncio.Lock()

    def to_json_dict(self) -> dict:
        """Status form."""
        return {"name": self.name, "host": self.host, "port": self.port,
                "healthy": self.healthy, "inflight": self.inflight,
                "consecutive_failures": self.consecutive_failures,
                "connections": len(self.clients)}


class FleetGateway:
    """Routes one logical service's traffic across N nodes.

    Args:
        config: tunables (defaults suit tests and the smoke fleet).
        registry: backing metrics registry; private when omitted so
            two gateways never share series.
        clock: time source (tests inject a
            :class:`~repro.testkit.clock.FakeClock`).
    """

    def __init__(self, config: Optional[GatewayConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 clock=SYSTEM_CLOCK) -> None:
        """See class docstring."""
        from repro.fleet.ring import ConsistentHashRing

        self.config = config or GatewayConfig()
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ring = ConsistentHashRing(
            replicas=self.config.ring_replicas)
        self._nodes: Dict[str, _NodeState] = {}
        self._health_task: Optional["asyncio.Task"] = None
        self._closed = False
        #: Fleet-level exemplars (slowest / failed requests' trace ids).
        self.flight = FlightRecorder()
        #: Last ``latency_s`` histogram snapshot per node — the delta
        #: base that turns each node's cumulative histogram into the
        #: windowed p95 the autoscaler scales on.
        self._last_node_hist: Dict[str, dict] = {}
        # The fleet metric families, pre-registered so an idle
        # gateway's scrape still shows every series dashboards use.
        reg = self.registry
        self._m_size = reg.gauge("fleet_size", "nodes in the member table")
        self._m_healthy = reg.gauge("fleet_nodes_healthy",
                                    "nodes currently in the routing ring")
        self._m_inflight = reg.gauge(
            "fleet_node_inflight", "requests in flight per node",
            label_names=("node",))
        self._m_requests = reg.counter(
            "fleet_requests_total", "requests seen by the gateway, by verb",
            label_names=("verb",))
        self._m_forwards = reg.counter(
            "fleet_forwards_total", "successful forwards per node",
            label_names=("node",))
        self._m_reroutes = reg.counter(
            "fleet_reroutes_total", "forwards retried on another node",
            label_names=("reason",))
        self._m_health = reg.counter(
            "fleet_health_transitions_total",
            "node health transitions, by new state",
            label_names=("to",))
        self._m_gaveups = reg.counter(
            "fleet_forward_failures_total",
            "requests failed after exhausting every candidate node")
        self._m_latency = reg.histogram(
            "fleet_latency_s", "gateway-observed forward latency",
            bounds=latency_bounds())
        self._m_size.set(0)
        self._m_healthy.set(0)

    # -- membership -----------------------------------------------------

    def add_node(self, name: str, host: str, port: int) -> None:
        """Add a member and put it in the routing ring (idempotent)."""
        if name in self._nodes:
            return
        self._nodes[name] = _NodeState(name, host, port)
        self.ring.add(name)
        self._m_inflight.set(0, node=name)
        self._refresh_gauges()

    async def remove_node(self, name: str) -> None:
        """Remove a member: out of the ring, connections closed."""
        state = self._nodes.pop(name, None)
        self.ring.remove(name)
        self._last_node_hist.pop(name, None)
        if state is not None:
            for client in state.clients:
                await _close_quietly(client)
            state.clients.clear()
        self._refresh_gauges()

    @property
    def node_names(self) -> List[str]:
        """Member names, sorted."""
        return sorted(self._nodes)

    @property
    def healthy_nodes(self) -> List[str]:
        """Names currently in the routing ring, sorted."""
        return sorted(n for n, s in self._nodes.items() if s.healthy)

    def _refresh_gauges(self) -> None:
        self._m_size.set(len(self._nodes))
        self._m_healthy.set(sum(1 for s in self._nodes.values()
                                if s.healthy))

    # -- connections ----------------------------------------------------

    async def _client(self, state: _NodeState) -> ServiceClient:
        """A pooled, connected client of *state* (round-robin).

        A concurrent failure handler may empty the pool between the
        growth check and the pick — retry once, then surface a
        :class:`ConnectionError` (which feeds the reroute path).
        """
        for _ in range(2):
            if len(state.clients) < self.config.pool_size:
                async with state.connect_lock:
                    if len(state.clients) < self.config.pool_size:
                        state.clients.append(await ServiceClient.connect(
                            state.host, state.port))
            clients = list(state.clients)
            if clients:
                state.next_client = (state.next_client + 1) % len(clients)
                return clients[state.next_client]
        raise ConnectionError(f"no connection to node {state.name}")

    async def _drop_connections(self, state: _NodeState) -> None:
        """Forget a node's pooled connections (after a failure)."""
        clients, state.clients = state.clients, []
        for client in clients:
            await _close_quietly(client)

    # -- health ---------------------------------------------------------

    def _mark_unhealthy(self, state: _NodeState) -> None:
        if state.healthy:
            state.healthy = False
            self.ring.remove(state.name)
            self._m_health.inc(to="unhealthy")
            self._refresh_gauges()

    def _mark_healthy(self, state: _NodeState) -> None:
        state.consecutive_failures = 0
        if not state.healthy:
            state.healthy = True
            self.ring.add(state.name)
            self._m_health.inc(to="healthy")
            self._refresh_gauges()

    def _note_forward_failure(self, state: _NodeState) -> None:
        """A failed forward is evidence: demote fast, recover via probes."""
        state.consecutive_failures += 1
        if state.consecutive_failures >= self.config.health_fail_threshold:
            self._mark_unhealthy(state)

    async def check_health_once(self) -> Dict[str, bool]:
        """Probe every member once; returns the health verdicts.

        The background loop calls this on its interval; tests call it
        directly for deterministic health transitions.
        """
        verdicts: Dict[str, bool] = {}
        for name in list(self._nodes):
            state = self._nodes.get(name)
            if state is None:
                continue
            try:
                inject("fleet.health", node=name)
                client = await self._client(state)
                await asyncio.wait_for(client.ping(),
                                       self.config.health_timeout_s)
            except (ConnectionError, OSError, ValueError,
                    asyncio.TimeoutError):
                state.consecutive_failures += 1
                await self._drop_connections(state)
                if (state.consecutive_failures
                        >= self.config.health_fail_threshold):
                    self._mark_unhealthy(state)
            else:
                self._mark_healthy(state)
            verdicts[name] = state.healthy
        return verdicts

    async def _health_loop(self) -> None:
        # Checked as well as cancelled: before Python 3.12, a cancel
        # that lands as a probe's ``wait_for`` completes is swallowed,
        # and a loop that only stops on cancellation then runs forever.
        while not self._closed:
            await self.clock.sleep(self.config.health_interval_s)
            await self.check_health_once()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "FleetGateway":
        """Start the background health loop; idempotent."""
        if self._health_task is None:
            self._closed = False
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop())
        return self

    async def close(self) -> None:
        """Stop the health loop and close every pooled connection."""
        self._closed = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for state in self._nodes.values():
            await self._drop_connections(state)

    async def __aenter__(self) -> "FleetGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- the submit path ------------------------------------------------

    async def submit(self, request: SimRequest) -> SimResponse:
        """Answer one request through the fleet; never raises for
        per-request problems (statuses, like the service itself).

        With tracing on, the gateway is where a request's ``trace_id``
        is minted (unless the client already sent one): the forwarded
        frame carries ``trace_id`` plus the gateway span's id as
        ``parent_span``, so every node/worker span downstream — across
        retries and reroutes — stitches under one ``gateway.submit``
        root span.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return await self._submit_inner(request, ctx=None)
        ctx = TraceContext.from_request(request.trace_id,
                                        request.parent_span)
        request = replace(request, trace_id=ctx.trace_id,
                          parent_span=ctx.span_id)
        start_s = tracer.now_s()
        started = self.clock.monotonic()
        response = await self._submit_inner(request, ctx=ctx)
        tracer.complete(
            "gateway.submit", "fleet", ts_s=start_s,
            dur_s=tracer.now_s() - start_s,
            args=ctx.args(proc="gateway", status=response.status,
                          source=response.source))
        self.flight.record(ctx.trace_id,
                           self.clock.monotonic() - started,
                           response.status, source=response.source)
        return response

    async def _submit_inner(self, request: SimRequest,
                            ctx: Optional[TraceContext]) -> SimResponse:
        """The untraced forward path (see :meth:`submit`)."""
        from repro.fleet.ring import route_key

        tracer = get_tracer()
        trace_id = ctx.trace_id if ctx else None
        self._m_requests.inc(verb="submit")
        try:
            request.validate()
        except InvalidRequestError as exc:
            return SimResponse(request=request, status=STATUS_FAILED,
                               error=str(exc), source=SOURCE_GATEWAY)
        if self._closed:
            return SimResponse(request=request, status=STATUS_FAILED,
                               error="gateway is shutting down",
                               source=SOURCE_GATEWAY)
        key = route_key(request.cpu, request.workload)
        try:
            inject("fleet.route", key=key)
            candidates = self._candidates(key)
        except Exception as exc:  # injected routing fault
            self._m_reroutes.inc(reason="route_fault", exemplar=trace_id)
            return SimResponse(request=request, status=STATUS_FAILED,
                               error=f"routing failed: {exc}",
                               source=SOURCE_GATEWAY)
        if not candidates:
            self._m_gaveups.inc()
            return SimResponse(request=request, status=STATUS_FAILED,
                               error="no healthy fleet nodes",
                               source=SOURCE_GATEWAY)
        timeout = (request.deadline_s if request.deadline_s is not None
                   else self.config.forward_timeout_s)
        last_error: Optional[str] = None
        for name in candidates[:self.config.max_forward_attempts]:
            state = self._nodes.get(name)
            if state is None:
                continue
            started = self.clock.monotonic()
            try:
                inject("fleet.forward", node=name)
                client = await self._client(state)
                state.inflight += 1
                self._m_inflight.set(state.inflight, node=name)
                try:
                    response = await asyncio.wait_for(
                        client.submit(request), timeout)
                finally:
                    state.inflight -= 1
                    self._m_inflight.set(state.inflight, node=name)
            except asyncio.TimeoutError:
                last_error = f"node {name} timed out after {timeout:.3f}s"
                self._m_reroutes.inc(reason="timeout", exemplar=trace_id)
                self._note_reroute(ctx, tracer, node=name, reason="timeout")
                self._note_forward_failure(state)
                continue
            except (ConnectionError, OSError) as exc:
                last_error = f"node {name} unreachable: {exc!r}"
                self._m_reroutes.inc(reason="connection", exemplar=trace_id)
                self._note_reroute(ctx, tracer, node=name,
                                   reason="connection")
                await self._drop_connections(state)
                self._note_forward_failure(state)
                continue
            except ValueError as exc:
                # Protocol-level error reply (not a node death): the
                # request itself is the problem; do not reroute it.
                return SimResponse(request=request, status=STATUS_FAILED,
                                   error=str(exc), source=SOURCE_GATEWAY)
            self._m_forwards.inc(node=name)
            self._m_latency.observe(self.clock.monotonic() - started)
            self._mark_healthy(state)
            return response
        self._m_gaveups.inc()
        return SimResponse(
            request=request, status=STATUS_FAILED,
            error="all fleet candidates failed: "
                  + (last_error or "none attempted"),
            source=SOURCE_GATEWAY)

    @staticmethod
    def _note_reroute(ctx: Optional[TraceContext], tracer,
                      node: str, reason: str) -> None:
        """Record a reroute instant inside the request's trace, so the
        merged view shows *why* a span tree hopped nodes."""
        if ctx is not None and tracer.enabled:
            tracer.instant("fleet.reroute", "fleet",
                           args=ctx.args(proc="gateway", node=node,
                                         reason=reason))

    def _candidates(self, key: str) -> List[str]:
        """Forward order for *key*: ring preference, then (only when
        the whole ring is empty) every member as a last resort."""
        ordered = self.ring.preference(key)
        if ordered:
            return ordered
        return sorted(self._nodes)

    # -- fan-out verbs --------------------------------------------------

    async def _fan_out(self, call) -> Dict[str, dict]:
        """Run ``call(client)`` on every member; errors become entries."""
        async def one(state: _NodeState) -> dict:
            try:
                client = await self._client(state)
                return await asyncio.wait_for(
                    call(client), self.config.forward_timeout_s)
            except (ConnectionError, OSError, ValueError,
                    asyncio.TimeoutError) as exc:
                await self._drop_connections(state)
                return {"error": repr(exc)}

        states = list(self._nodes.values())
        answers = await asyncio.gather(*(one(s) for s in states))
        return {state.name: answer
                for state, answer in zip(states, answers)}

    async def metrics(self) -> dict:
        """Aggregated metrics: the gateway's own families plus every
        node's snapshot (unreachable nodes appear as errors)."""
        self._m_requests.inc(verb="metrics")
        nodes = await self._fan_out(lambda c: c.metrics())
        return {"gateway": self.registry.snapshot(), "nodes": nodes}

    def metrics_text(self) -> str:
        """The gateway's fleet families in Prometheus text format."""
        return render_prometheus(self.registry)

    async def trace(self) -> dict:
        """Fan-out of every node's tracer events, plus the merged view.

        Each process's tracer stamps wall timestamps as seconds since
        *its own* creation, so the per-node answers are mutually
        misaligned by process start skew.  The ``merged`` trace rebases
        every answer (and the gateway's own buffer) onto the gateway
        tracer's wall-clock origin via
        :func:`~repro.obs.context.merge_process_traces`, yielding one
        time-aligned Chrome trace with a lane per gateway/node/worker.
        """
        self._m_requests.inc(verb="trace")
        nodes = await self._fan_out(lambda c: c.trace())
        tracer = get_tracer()
        own = tracer.to_chrome_trace()
        processes = [{"name": "gateway",
                      "origin_unix_s": tracer.origin_unix_s,
                      "tracer_id": tracer.tracer_id,
                      "events": own["traceEvents"]}]
        for name in sorted(nodes):
            answer = nodes[name]
            events = answer.get("events")
            if not isinstance(events, list):
                continue  # unreachable node or tracing off
            processes.append({
                "name": str(answer.get("proc") or name),
                "origin_unix_s": float(answer.get("origin_unix_s")
                                       or tracer.origin_unix_s),
                "tracer_id": answer.get("tracer_id"),
                "events": events,
            })
        merged = merge_process_traces(
            processes, base_origin_unix_s=tracer.origin_unix_s)
        return {"nodes": nodes, "merged": merged,
                "origin_unix_s": tracer.origin_unix_s,
                "flight": self.flight.to_json_dict()}

    async def node_signals(self) -> Dict[str, dict]:
        """The autoscaler's inputs, scraped per node.

        Distils each node's ``health`` verb and :mod:`repro.obs`
        metrics snapshot into ``{queue_depth, inflight, p95_latency_s,
        windowed_p95_latency_s, draining}``; unreachable nodes come
        back as ``{"error": ...}`` entries the control loop skips.

        ``p95_latency_s`` reads the node's *cumulative* histogram and
        never forgets a cold warm-up; ``windowed_p95_latency_s`` is the
        p95 of only the observations since the previous scrape (delta
        against the remembered snapshot), and is ``None`` when that
        window saw no traffic or no previous scrape exists — the
        signal the autoscaler prefers.
        """
        async def scrape(client: ServiceClient) -> dict:
            health = await client.health()
            snapshot = await client.metrics()
            hist = snapshot.get("histograms", {}).get("latency_s", {})
            return {
                "queue_depth": float(health.get("queue_depth", 0)),
                "inflight": float(health.get("inflight", 0)),
                "draining": health.get("status") != "ok",
                "p95_latency_s": hist.get("p95"),
                "_latency_hist": hist,
            }

        signals = await self._fan_out(scrape)
        for name, entry in signals.items():
            hist = entry.pop("_latency_hist", None)
            if not isinstance(hist, dict):
                continue
            prev = self._last_node_hist.get(name)
            self._last_node_hist[name] = hist
            entry["windowed_p95_latency_s"] = (
                percentile_of(histogram_delta(hist, prev), 0.95)
                if prev is not None else None)
        return signals

    async def status(self) -> dict:
        """The fleet control-plane view (``status`` verb, CLI)."""
        def flat(counter) -> Dict[str, int]:
            return {labels[0] if labels else "": value
                    for labels, value in counter.series().items()}

        self._m_requests.inc(verb="status")
        return {
            "nodes": [self._nodes[n].to_json_dict()
                      for n in sorted(self._nodes)],
            "healthy": self.healthy_nodes,
            "ring_size": len(self.ring),
            "counters": {
                "requests": flat(self._m_requests),
                "forwards": flat(self._m_forwards),
                "reroutes": flat(self._m_reroutes),
            },
        }


async def _close_quietly(client: ServiceClient) -> None:
    try:
        await client.close()
    except (ConnectionError, OSError, RuntimeError):
        pass


# -- the TCP front-end --------------------------------------------------

async def _handle_gateway_message(gateway: FleetGateway, message: dict,
                                  writer: "asyncio.StreamWriter",
                                  lock: "asyncio.Lock") -> None:
    """Answer one decoded frame on the gateway's front door."""
    msg_id = message.get("id")
    op = message.get("op", "submit")
    try:
        if op == "submit":
            try:
                request = SimRequest.from_dict(message.get("request") or {})
                request.validate()
            except InvalidRequestError as exc:
                out = {"op": "error", "error": str(exc)}
            else:
                response = await gateway.submit(request)
                out = response.to_dict()
                out["op"] = "response"
        elif op == "metrics":
            if message.get("format") == "prometheus":
                out = {"op": "metrics", "format": "prometheus",
                       "text": gateway.metrics_text()}
            else:
                out = {"op": "metrics", "metrics": await gateway.metrics()}
        elif op == "trace":
            out = {"op": "trace"}
            out.update(await gateway.trace())
        elif op == "status":
            out = {"op": "status", "fleet": await gateway.status()}
        elif op == "ping":
            out = {"op": "pong", "version": REPRO_VERSION,
                   "role": "gateway",
                   "fleet_size": len(gateway.node_names)}
        else:
            out = {"op": "error", "error": f"unknown op {op!r}"}
    except Exception as exc:  # an unanswered frame wedges the client
        out = {"op": "error", "error": f"internal gateway error: {exc!r}"}
    if msg_id is not None:
        out["id"] = msg_id
    try:
        async with lock:
            writer.write(json.dumps(out).encode("utf-8") + b"\n")
            await writer.drain()
    except (ConnectionError, RuntimeError):
        pass  # client went away mid-response


async def _handle_gateway_connection(gateway: FleetGateway,
                                     reader: "asyncio.StreamReader",
                                     writer: "asyncio.StreamWriter") -> None:
    """One JSON-lines connection on the front door; frames run
    concurrently, exactly like the single-service server."""
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
                message = json.loads(line)
            except ValueError:
                async with lock:
                    writer.write(b'{"op": "error", "error": "bad json"}\n')
                    await writer.drain()
                continue
            if not isinstance(message, dict):
                async with lock:
                    writer.write(b'{"op": "error", '
                                 b'"error": "frame must be a JSON object"}\n')
                    await writer.drain()
                continue
            task = asyncio.get_running_loop().create_task(
                _handle_gateway_message(gateway, message, writer, lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*list(tasks), return_exceptions=True)
    finally:
        try:
            writer.close()
        except RuntimeError:
            pass


async def start_fleet_server(gateway: FleetGateway,
                             host: str = "127.0.0.1",
                             port: int = 0) -> "asyncio.AbstractServer":
    """Expose *gateway* over JSON-lines TCP (same protocol as a node).

    ``port=0`` binds an ephemeral port — read it back from
    ``server.sockets[0].getsockname()[1]``.
    """
    async def handler(reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        await _handle_gateway_connection(gateway, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)
