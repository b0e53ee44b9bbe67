"""End-to-end distributed tracing: one request, one stitched span tree.

Drives real requests through the service with tracing on and asserts
the propagation contract:

* the wire protocol carries ``trace_id``/``parent_span`` without
  changing request identity (dedup/cache keys) or the untraced frame;
* a service submit yields a ``service.submit`` span with a
  ``worker.execute`` child in the same trace.
"""

import asyncio

import pytest

from repro.obs.context import (
    orphan_spans,
    span_index,
    span_tree,
    trace_ids_in,
)
from repro.obs.tracer import disable_tracing, enable_tracing
from repro.service import (
    ServiceConfig,
    SimRequest,
    SimulationService,
)
from repro.service.request import InvalidRequestError

THREAD_CONFIG = dict(use_processes=False, n_shards=1, workers_per_shard=2,
                     batch_window_s=0.002, default_timeout_s=30.0)


def run(coro):
    """Run *coro* on a fresh event loop (the tests' async entry point)."""
    return asyncio.run(coro)


@pytest.fixture
def tracer():
    recording = enable_tracing(capacity=100_000)
    yield recording
    disable_tracing()


class TestRequestTraceFields:
    def test_round_trip(self):
        request = SimRequest("C", "557.xz", trace_id="ab" * 8,
                             parent_span="cd" * 4)
        clone = SimRequest.from_dict(request.to_dict())
        assert clone.trace_id == "ab" * 8
        assert clone.parent_span == "cd" * 4

    def test_identity_excludes_trace_context(self):
        plain = SimRequest("C", "557.xz", seed=7)
        traced = SimRequest("C", "557.xz", seed=7, trace_id="ab" * 8,
                            parent_span="cd" * 4)
        assert plain.canonical_key() == traced.canonical_key()
        assert "trace_id" not in traced.canonical_dict()

    def test_untraced_frame_is_byte_identical(self):
        # Tracing must not change the wire protocol for untraced
        # requests: the fields only appear when set.
        untraced = SimRequest("C", "557.xz").to_dict()
        assert "trace_id" not in untraced
        assert "parent_span" not in untraced

    def test_invalid_trace_fields_rejected(self):
        for bad in ({"trace_id": ""}, {"parent_span": 7}):
            with pytest.raises(InvalidRequestError):
                SimRequest("C", "557.xz", **bad).validate()


class TestServiceSpans:
    def test_submit_records_service_and_worker_spans(self, tracer):
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                request = SimRequest("C", "__sleep__:0.01",
                                     trace_id="ee" * 8,
                                     parent_span="ff" * 4)
                response = await service.submit(request)
                return response

        response = run(scenario())
        assert response.ok
        events = tracer.to_chrome_trace()["traceEvents"]
        spans = span_index(events, "ee" * 8)
        by_name = {e["name"]: e for e in spans.values()}
        assert set(by_name) == {"service.submit", "worker.execute"}
        submit_args = by_name["service.submit"]["args"]
        worker_args = by_name["worker.execute"]["args"]
        # The caller's span parents the submit; the submit's span
        # parents the worker's execution.
        assert submit_args["parent_span"] == "ff" * 4
        assert worker_args["parent_span"] == submit_args["span_id"]
        assert worker_args["proc"].startswith("worker:")
        # The fabricated caller span was never recorded here, so the
        # submit span itself reads as the (expected) orphan; the
        # worker span must NOT — its parent is in this trace.
        orphans = orphan_spans(events, "ee" * 8)
        assert [e["name"] for e in orphans] == ["service.submit"]

    def test_untraced_request_gets_a_minted_root(self, tracer):
        # With a recording tracer the service is the trace's entry
        # tier: it mints the trace id and roots the tree itself.
        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                return await service.submit(SimRequest("C",
                                                       "__sleep__:0.01"))

        response = run(scenario())
        assert response.ok
        events = tracer.to_chrome_trace()["traceEvents"]
        traces = trace_ids_in(events)
        assert len(traces) == 1
        tree = span_tree(events, traces[0])
        assert [e["name"] for e in tree["roots"]] == ["service.submit"]
        assert tree["orphans"] == []

    def test_disabled_tracer_records_nothing(self):
        disable_tracing()

        async def scenario():
            async with SimulationService(
                    ServiceConfig(**THREAD_CONFIG)) as service:
                return await service.submit(
                    SimRequest("C", "__sleep__:0.01", trace_id="aa" * 8))

        response = run(scenario())
        assert response.ok
        from repro.obs.tracer import get_tracer
        assert get_tracer().enabled is False
