"""End-to-end tests of the simulation service (acceptance criteria).

Asserted here, per the issue:

* >= 8 concurrent clients served with zero lost or duplicated
  responses;
* duplicate in-flight requests answered by a single simulation
  (verified via the ``simulations_executed`` / ``dedup_hits``
  counters);
* a killed worker process is retried transparently and the request
  still completes;
* saturation produces explicit backpressure rejections (with a
  retry-after hint) instead of unbounded queueing.

Plus: per-request timeouts, the result-cache fast path, graceful
drain, and a TCP server/client round-trip.
"""

import asyncio

import pytest

from repro.runtime.cache import ResultCache
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SimRequest,
    SimulationService,
    start_tcp_server,
)
from repro.testkit.clock import FakeClock

#: Thread-tier config: full concurrency semantics, no process spawn cost.
THREAD_CONFIG = dict(use_processes=False, n_shards=2, workers_per_shard=2,
                     batch_window_s=0.002, default_timeout_s=30.0)


def run(coro):
    """Run *coro* on a fresh event loop (the tests' async entry point)."""
    return asyncio.run(coro)


class TestConcurrentClients:
    def test_eight_clients_zero_lost_or_duplicated(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                async def client(client_id):
                    requests = [
                        SimRequest("C" if client_id % 2 else "A",
                                   "557.xz", seed=client_id * 100 + i)
                        for i in range(5)
                    ]
                    responses = [await service.submit(q) for q in requests]
                    return requests, responses

                outcomes = await asyncio.gather(
                    *[client(i) for i in range(8)])
                return outcomes, service.metrics.snapshot()

        outcomes, snapshot = run(scenario())
        seen = []
        for requests, responses in outcomes:
            assert len(responses) == len(requests)  # nothing lost
            for request, response in zip(requests, responses):
                assert response.ok, response.error
                # Each response answers exactly the request that asked.
                assert response.request == request
                assert response.payload["workload"] == "557.xz"
                seen.append(request.canonical_key())
        assert len(seen) == 8 * 5
        assert len(set(seen)) == 8 * 5  # all distinct -> none duplicated
        counters = snapshot["counters"]
        assert counters["requests_completed"] == 40
        assert counters["simulations_executed"] == 40
        assert counters.get("requests_failed", 0) == 0

    def test_batching_actually_groups(self):
        async def scenario():
            config = ServiceConfig(use_processes=False, n_shards=1,
                                   workers_per_shard=1, max_batch_size=8,
                                   batch_window_s=0.02)
            async with SimulationService(config) as service:
                requests = [SimRequest("C", "557.xz", seed=i)
                            for i in range(8)]
                responses = await asyncio.gather(
                    *[service.submit(q) for q in requests])
                return responses, service.metrics.snapshot()

        responses, snapshot = run(scenario())
        assert all(r.ok for r in responses)
        counters = snapshot["counters"]
        # 8 requests must have shipped in far fewer batches.
        assert counters["batches_dispatched"] < 8
        occupancy = snapshot["histograms"]["batch_occupancy"]
        assert occupancy["max"] >= 2

    def test_lone_requests_skip_the_window(self):
        """One client sending one request at a time leaves nothing else
        in flight, so no batch waits.  The clock never advances by
        itself here: a held 5 s window would hang the request."""
        async def scenario():
            clock = FakeClock(auto_advance=False)
            service = SimulationService(
                ServiceConfig(use_processes=False, n_shards=1,
                              workers_per_shard=1, batch_window_s=5.0),
                clock=clock)
            await service.start()
            try:
                responses = [
                    await asyncio.wait_for(
                        service.submit(SimRequest("C", "557.xz", seed=i)),
                        timeout=60.0)
                    for i in range(3)]
                sleeps = clock.sleep_calls
            finally:
                clock.auto_advance = True  # stop() polls its drain
                await service.stop()
            return responses, sleeps

        responses, sleeps = run(scenario())
        assert all(r.ok for r in responses)
        assert sleeps == 0


class TestDedup:
    def test_identical_inflight_requests_run_once(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                request = SimRequest("C", "541.leela", seed=7)
                responses = await asyncio.gather(
                    *[service.submit(request) for _ in range(8)])
                return responses, service.metrics.snapshot()

        responses, snapshot = run(scenario())
        assert all(r.ok for r in responses)
        payloads = {str(sorted(r.payload.items())) for r in responses}
        assert len(payloads) == 1  # every waiter got the same answer
        counters = snapshot["counters"]
        assert counters["simulations_executed"] == 1
        assert counters["dedup_hits"] == 7
        sources = sorted(r.source for r in responses)
        assert sources.count("computed") == 1
        assert sources.count("dedup") == 7

    def test_different_requests_not_deduped(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                responses = await asyncio.gather(
                    *[service.submit(SimRequest("C", "557.xz", seed=i))
                      for i in range(4)])
                return responses, service.metrics.snapshot()

        responses, snapshot = run(scenario())
        assert all(r.ok for r in responses)
        assert snapshot["counters"]["simulations_executed"] == 4
        assert snapshot["counters"].get("dedup_hits", 0) == 0


class TestWorkerCrashRetry:
    def test_killed_worker_is_retried_transparently(self, tmp_path):
        async def scenario():
            config = ServiceConfig(use_processes=True, n_shards=1,
                                   workers_per_shard=1, max_retries=2,
                                   retry_backoff_s=0.02,
                                   batch_window_s=0.0)
            sentinel = tmp_path / "crash-once"
            async with SimulationService(config) as service:
                response = await service.submit(
                    SimRequest("C", f"__crash__:{sentinel}"))
                return response, service.metrics.snapshot()

        response, snapshot = run(scenario())
        assert response.ok, response.error
        assert response.payload["crash_recovered"] is True
        assert response.retries >= 1
        assert snapshot["counters"]["worker_restarts"] >= 1
        assert snapshot["counters"]["batch_retries"] >= 1

    def test_pool_broken_between_batches_is_recycled(self):
        """A worker that dies after its batch finished leaves a pool
        that refuses the next submit outright; the tier recycles it and
        retries, instead of leaving that batch (and every later one on
        the shard) unanswered until the requests time out."""
        import os
        from concurrent.futures import BrokenExecutor

        async def scenario():
            config = ServiceConfig(use_processes=True, n_shards=1,
                                   workers_per_shard=1, max_retries=2,
                                   retry_backoff_s=0.02,
                                   batch_window_s=0.0,
                                   default_timeout_s=30.0)
            async with SimulationService(config) as service:
                first = await service.submit(SimRequest("C", "557.xz"))
                death = service.tier._pool(0).submit(os._exit, 3)
                with pytest.raises(BrokenExecutor):
                    await asyncio.wrap_future(death)
                second = await service.submit(
                    SimRequest("C", "557.xz", seed=1))
                return first, second, service.metrics.snapshot()

        first, second, snapshot = run(scenario())
        assert first.ok and first.retries == 0
        assert second.ok, second.error
        assert second.retries == 1
        assert snapshot["counters"]["worker_restarts"] == 1

    def test_real_simulation_on_process_tier(self):
        async def scenario():
            config = ServiceConfig(use_processes=True, n_shards=1,
                                   workers_per_shard=1, batch_window_s=0.0)
            async with SimulationService(config) as service:
                return await service.submit(SimRequest("C", "557.xz"))

        response = run(scenario())
        assert response.ok, response.error
        assert "Xeon" in response.payload["cpu_name"]
        assert response.payload["n_exceptions"] >= 0


class TestBackpressure:
    def test_saturation_rejects_instead_of_queueing(self):
        async def scenario():
            config = ServiceConfig(use_processes=False, n_shards=1,
                                   workers_per_shard=1, max_queue_depth=2,
                                   max_batch_size=1, batch_window_s=0.0,
                                   default_timeout_s=10.0)
            async with SimulationService(config) as service:
                requests = [SimRequest("C", "__sleep__:0.1", seed=i)
                            for i in range(10)]
                responses = await asyncio.gather(
                    *[service.submit(q) for q in requests])
                return responses, service.metrics.snapshot()

        responses, snapshot = run(scenario())
        statuses = [r.status for r in responses]
        rejected = [r for r in responses if r.status == "rejected"]
        assert rejected, f"expected rejections, got {statuses}"
        assert all(r.retry_after_s and r.retry_after_s > 0
                   for r in rejected)
        # Every request got exactly one definitive answer.
        assert statuses.count("ok") + len(rejected) == 10
        assert snapshot["counters"]["requests_rejected"] == len(rejected)

    def test_invalid_request_fails_without_scheduling(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                response = await service.submit(
                    SimRequest("C", "557.xz", strategy="bogus"))
                return response, service.metrics.snapshot()

        response, snapshot = run(scenario())
        assert response.status == "failed"
        assert "strategy" in response.error
        assert snapshot["counters"]["requests_invalid"] == 1
        assert snapshot["counters"].get("simulations_executed", 0) == 0

    def test_boundary_rules_refused_at_submit(self):
        # No voltage rail on CPU B; a deadline must be finite.
        bad = [SimRequest("B", "557.xz", strategy="fV"),
               SimRequest("B", "557.xz", strategy="V"),
               SimRequest("C", "557.xz", deadline_s=float("nan")),
               SimRequest("C", "557.xz", deadline_s=float("inf"))]

        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                responses = [await service.submit(r) for r in bad]
                return responses, service.metrics.snapshot()

        responses, snapshot = run(scenario())
        assert [r.status for r in responses] == ["failed"] * len(bad)
        assert all("\n" not in r.error for r in responses)
        assert "no voltage control" in responses[0].error
        assert "deadline_s" in responses[2].error
        assert snapshot["counters"]["requests_invalid"] == len(bad)
        assert snapshot["counters"].get("simulations_executed", 0) == 0

    def test_unknown_workload_fails_in_worker(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                return await service.submit(SimRequest("C", "no.such"))

        response = run(scenario())
        assert response.status == "failed"
        assert "unknown workload" in response.error


class TestTimeouts:
    def test_deadline_bounds_the_wait(self):
        async def scenario():
            config = ServiceConfig(use_processes=False, n_shards=1,
                                   workers_per_shard=1, batch_window_s=0.0)
            async with SimulationService(config) as service:
                return await service.submit(
                    SimRequest("C", "__sleep__:1.0", deadline_s=0.05))

        response = run(scenario())
        assert response.status == "timeout"
        assert "0.05" in response.error


class TestCacheIntegration:
    def test_second_submission_served_from_cache(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "cache")
            config = ServiceConfig(**THREAD_CONFIG)
            async with SimulationService(config, cache=cache) as service:
                request = SimRequest("C", "557.xz", seed=11)
                first = await service.submit(request)
                second = await service.submit(request)
                return first, second, service.metrics.snapshot()

        first, second, snapshot = run(scenario())
        assert first.ok and second.ok
        assert first.source == "computed"
        assert second.source == "cache"
        assert first.payload == second.payload
        assert snapshot["counters"]["cache_hits"] == 1
        assert snapshot["counters"]["simulations_executed"] == 1


class TestGracefulShutdown:
    def test_drain_completes_admitted_work(self):
        async def scenario():
            config = ServiceConfig(use_processes=False, n_shards=1,
                                   workers_per_shard=2,
                                   batch_window_s=0.002)
            service = SimulationService(config)
            await service.start()
            pending = [
                asyncio.get_running_loop().create_task(
                    service.submit(SimRequest("C", "557.xz", seed=i)))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await service.stop(drain=True)
            responses = await asyncio.gather(*pending)
            late = await service.submit(SimRequest("C", "557.xz", seed=99))
            return responses, late

        responses, late = run(scenario())
        assert all(r.ok for r in responses), \
            [(r.status, r.error) for r in responses]
        assert late.status == "rejected"
        assert "shutting down" in late.error

    def test_stop_without_drain_fails_queued_work(self):
        async def scenario():
            config = ServiceConfig(use_processes=False, n_shards=1,
                                   workers_per_shard=1, max_batch_size=1,
                                   batch_window_s=0.0)
            service = SimulationService(config)
            await service.start()
            pending = [
                asyncio.get_running_loop().create_task(
                    service.submit(SimRequest("C", "__sleep__:0.05",
                                              seed=i)))
                for i in range(6)
            ]
            await asyncio.sleep(0.01)
            await service.stop(drain=False)
            return await asyncio.gather(*pending)

        responses = run(scenario())
        assert all(r.status in ("ok", "failed") for r in responses)
        assert any(r.status == "failed" for r in responses)


class TestTcpTransport:
    def test_client_server_roundtrip(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                server = await start_tcp_server(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    pong = await client.ping()
                    responses = await client.submit_many([
                        SimRequest("C", "557.xz", seed=1),
                        SimRequest("A", "nginx", seed=2),
                        SimRequest("C", "557.xz", seed=1),  # cache/dedup
                    ])
                    metrics = await client.metrics()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return pong, responses, metrics

        pong, responses, metrics = run(scenario())
        assert pong["op"] == "pong"
        assert [r.ok for r in responses] == [True, True, True]
        assert responses[0].request.workload == "557.xz"
        assert responses[1].request.cpu == "A"
        assert metrics["counters"]["requests_submitted"] == 3

    def test_bad_payload_raises_client_side(self):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                server = await start_tcp_server(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    with pytest.raises(ValueError):
                        await client.submit({"cpu": "C",
                                             "workload": "557.xz",
                                             "bogus_field": 1})
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()

        run(scenario())
