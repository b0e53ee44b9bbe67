"""The fleet gateway: routing, reroute-on-failure, health, fan-out,
and the JSON-lines front door.
"""

import asyncio

import pytest

from repro.fleet import (
    FleetGateway,
    GatewayConfig,
    NodeConfig,
    NodeSupervisor,
    start_fleet_server,
)
from repro.fleet.ring import route_key
from repro.service import ServiceClient, SimRequest
from repro.service.request import STATUS_FAILED, STATUS_OK
from repro.testkit.chaos import ChaosController, FaultPlan, FaultSpec


def run(coro):
    """Run *coro* on a fresh event loop (the tests' async entry point)."""
    return asyncio.run(coro)


class _Fleet:
    """N in-process nodes behind one gateway, torn down reliably."""

    def __init__(self, n=3, **gateway_kwargs):
        self.n = n
        self.gateway_kwargs = gateway_kwargs

    async def __aenter__(self):
        self.supervisor = NodeSupervisor(NodeConfig(in_process=True))
        self.gateway = FleetGateway(GatewayConfig(**self.gateway_kwargs))
        for _ in range(self.n):
            handle = await self.supervisor.spawn()
            self.gateway.add_node(handle.name, handle.host, handle.port)
        return self

    async def __aexit__(self, *exc):
        await self.gateway.close()
        await self.supervisor.stop_all(drain=False)


class TestRouting:
    def test_equal_keys_land_on_one_node(self):
        async def scenario():
            async with _Fleet(3) as fleet:
                for i in range(6):
                    response = await fleet.gateway.submit(
                        SimRequest("A", "557.xz", seed=i))
                    assert response.status == STATUS_OK
                return fleet.gateway._m_forwards.series()

        series = run(scenario())
        # All six requests share (cpu, workload): exactly one node
        # sees forwards.
        assert sum(1 for v in series.values() if v) == 1
        assert sum(series.values()) == 6

    def test_placement_follows_the_ring(self):
        async def scenario():
            async with _Fleet(3) as fleet:
                owner = fleet.gateway.ring.route(route_key("C", "vlc"))
                response = await fleet.gateway.submit(
                    SimRequest("C", "vlc"))
                assert response.status == STATUS_OK
                return owner, fleet.gateway._m_forwards.series()

        owner, series = run(scenario())
        assert series.get((owner,)) == 1

    def test_invalid_request_fails_without_forwarding(self):
        async def scenario():
            async with _Fleet(2) as fleet:
                response = await fleet.gateway.submit(
                    SimRequest("A", "557.xz", voltage_offset=0.5))
                return response, fleet.gateway._m_forwards.series()

        response, series = run(scenario())
        assert response.status == STATUS_FAILED
        assert response.source == "gateway"
        assert not any(series.values())

    def test_empty_fleet_fails_explicitly(self):
        async def scenario():
            gateway = FleetGateway()
            response = await gateway.submit(SimRequest("A", "557.xz"))
            await gateway.close()
            return response

        response = run(scenario())
        assert response.status == STATUS_FAILED
        assert "no healthy fleet nodes" in response.error


class TestReroute:
    def test_killed_node_reroutes_with_right_answer(self):
        async def scenario():
            async with _Fleet(3) as fleet:
                request = SimRequest("A", "557.xz")
                reference = await fleet.gateway.submit(request)
                owner = fleet.gateway.ring.route(
                    route_key(request.cpu, request.workload))
                await fleet.supervisor.kill(owner)
                rerouted = await fleet.gateway.submit(request)
                reroutes = dict(fleet.gateway._m_reroutes.series())
                return reference, rerouted, owner, reroutes

        reference, rerouted, owner, reroutes = run(scenario())
        assert reference.status == STATUS_OK
        assert rerouted.status == STATUS_OK
        assert rerouted.payload == reference.payload  # same pure answer
        assert sum(reroutes.values()) >= 1

    def test_forward_failures_demote_the_node(self):
        async def scenario():
            async with _Fleet(2, health_fail_threshold=2) as fleet:
                request = SimRequest("A", "557.xz")
                owner = fleet.gateway.ring.route(
                    route_key(request.cpu, request.workload))
                await fleet.supervisor.kill(owner)
                for _ in range(2):
                    response = await fleet.gateway.submit(request)
                    assert response.status == STATUS_OK
                return owner, fleet.gateway.healthy_nodes

        owner, healthy = run(scenario())
        assert owner not in healthy

    def test_all_nodes_down_fails_explicitly(self):
        async def scenario():
            async with _Fleet(2) as fleet:
                for handle in list(fleet.supervisor.nodes):
                    await fleet.supervisor.kill(handle.name)
                return await fleet.gateway.submit(SimRequest("A", "557.xz"))

        response = run(scenario())
        assert response.status == STATUS_FAILED
        assert response.source == "gateway"

    def test_injected_forward_fault_reroutes(self):
        async def scenario():
            plan = FaultPlan.generate(7, [FaultSpec(
                "fleet.forward", "raise", 1.0, max_fires=1,
                exception="ConnectionResetError")], horizon=100)
            controller = ChaosController(plan)
            controller.activate(export=False)
            try:
                async with _Fleet(3) as fleet:
                    response = await fleet.gateway.submit(
                        SimRequest("A", "557.xz"))
                    reroutes = dict(fleet.gateway._m_reroutes.series())
                    return response, reroutes
            finally:
                controller.cleanup()

        response, reroutes = run(scenario())
        assert response.status == STATUS_OK
        assert reroutes.get(("connection",)) == 1


class TestHealth:
    def test_probe_demotes_and_recovers(self):
        async def scenario():
            async with _Fleet(2, health_fail_threshold=1) as fleet:
                victim = fleet.supervisor.nodes[0]
                # Simulate an unreachable node by pointing its state at
                # a dead port (kill would stop the service for good).
                fleet.gateway._nodes[victim.name].port = 1
                await fleet.gateway._drop_connections(
                    fleet.gateway._nodes[victim.name])
                verdicts = await fleet.gateway.check_health_once()
                assert verdicts[victim.name] is False
                demoted = list(fleet.gateway.healthy_nodes)
                fleet.gateway._nodes[victim.name].port = victim.port
                await fleet.gateway.check_health_once()
                return victim.name, demoted, fleet.gateway.healthy_nodes

        name, demoted, recovered = run(scenario())
        assert name not in demoted
        assert name in recovered

    def test_unhealthy_node_leaves_the_ring(self):
        async def scenario():
            async with _Fleet(3, health_fail_threshold=1) as fleet:
                victim = fleet.supervisor.nodes[0].name
                fleet.gateway._nodes[victim].port = 1
                await fleet.gateway._drop_connections(
                    fleet.gateway._nodes[victim])
                await fleet.gateway.check_health_once()
                return victim, fleet.gateway.ring.nodes

        victim, ring_nodes = run(scenario())
        assert victim not in ring_nodes

    def test_close_stops_a_probe_that_swallows_the_cancel(self):
        # Before Python 3.12, asyncio.wait_for returns the probe's
        # result instead of raising when the cancel lands as the probe
        # ends; close() must stop the health loop all the same.
        async def scenario():
            gateway = FleetGateway(GatewayConfig(health_interval_s=0.001))
            entered = asyncio.Event()
            swallowed = []

            async def probe_swallowing_one_cancel():
                entered.set()
                try:
                    await asyncio.sleep(0.05)
                except asyncio.CancelledError:
                    if swallowed:
                        raise
                    swallowed.append(True)
                return {}

            gateway.check_health_once = probe_swallowing_one_cancel
            await gateway.start()
            await entered.wait()
            closing = asyncio.ensure_future(gateway.close())
            done, _ = await asyncio.wait({closing}, timeout=5.0)
            return closing in done, swallowed

        closed, swallowed = run(scenario())
        assert swallowed == [True]
        assert closed


class TestFanOutAndMetrics:
    def test_metrics_aggregates_gateway_and_nodes(self):
        async def scenario():
            async with _Fleet(2) as fleet:
                await fleet.gateway.submit(SimRequest("A", "557.xz"))
                return await fleet.gateway.metrics()

        snapshot = run(scenario())
        assert "gateway" in snapshot and "nodes" in snapshot
        assert len(snapshot["nodes"]) == 2
        counters = snapshot["gateway"]["counters"]
        assert counters['fleet_requests_total{verb="submit"}'] == 1

    def test_prometheus_text_exposes_fleet_families(self):
        async def scenario():
            async with _Fleet(2) as fleet:
                await fleet.gateway.submit(SimRequest("A", "557.xz"))
                return fleet.gateway.metrics_text()

        text = run(scenario())
        for family in ("fleet_size", "fleet_nodes_healthy",
                       "fleet_node_inflight", "fleet_requests_total",
                       "fleet_reroutes_total"):
            assert family in text

    def test_node_signals_shape(self):
        async def scenario():
            async with _Fleet(2) as fleet:
                return await fleet.gateway.node_signals()

        signals = run(scenario())
        assert len(signals) == 2
        for entry in signals.values():
            assert set(entry) >= {"queue_depth", "inflight", "draining"}
            assert entry["draining"] is False


class TestFrontDoor:
    def test_client_cannot_tell_gateway_from_node(self):
        async def scenario():
            async with _Fleet(2) as fleet:
                server = await start_fleet_server(fleet.gateway, port=0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    response = await client.submit(SimRequest("A", "557.xz"))
                    pong = await client.ping()
                    metrics = await client.metrics()
                    status = await client.fleet_status()
                    return response, pong, metrics, status
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()

        response, pong, metrics, status = run(scenario())
        assert response.status == STATUS_OK
        assert pong["role"] == "gateway"
        assert pong["fleet_size"] == 2
        assert "gateway" in metrics
        assert len(status["nodes"]) == 2
        assert status["ring_size"] == 2

    def test_front_door_rejects_garbage_frames(self):
        async def scenario():
            async with _Fleet(1) as fleet:
                server = await start_fleet_server(fleet.gateway, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                try:
                    writer.write(b"not json\n[1,2]\n")
                    await writer.drain()
                    first = await reader.readline()
                    second = await reader.readline()
                    return first, second
                finally:
                    writer.close()
                    server.close()
                    await server.wait_closed()

        first, second = run(scenario())
        assert b"bad json" in first
        assert b"JSON object" in second

    def test_unknown_op_is_answered(self):
        async def scenario():
            async with _Fleet(1) as fleet:
                server = await start_fleet_server(fleet.gateway, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                try:
                    writer.write(b'{"op": "explode", "id": 1}\n')
                    await writer.drain()
                    return await reader.readline()
                finally:
                    writer.close()
                    server.close()
                    await server.wait_closed()

        line = run(scenario())
        assert b"unknown op" in line
