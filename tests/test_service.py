"""Unit tests for the service building blocks.

Covers the request model (canonical identity, validation, wire
round-trips), the metrics histograms, the deadline-aware scheduler
(ordering, admission control/backpressure) and the micro-batcher
(compatibility grouping, occupancy cap, interactive bypass, holding
the window only beside other in-flight work).
"""

import asyncio
import math

import pytest

from repro.service import (
    AdmissionError,
    Batch,
    DeadlineScheduler,
    Histogram,
    InvalidRequestError,
    MicroBatcher,
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    ScheduledEntry,
    ServiceMetrics,
    SimRequest,
    SimResponse,
)
from repro.service.scheduler import absolute_deadline
from repro.testkit.clock import FakeClock


class _StubFuture:
    """Future stand-in for scheduler tests that never resolve entries."""

    def done(self):
        return True


def _entry(request, key="k"):
    return ScheduledEntry(request=request, future=_StubFuture(),
                          key=key, due=absolute_deadline(request))


def _admit(sched, unanswered, request):
    """Queue *request* and count it unanswered, as the service does."""
    sched.push(_entry(request))
    unanswered.append(request)


class TestSimRequest:
    def test_canonical_key_stable(self):
        a = SimRequest("C", "557.xz", seed=3)
        b = SimRequest("C", "557.xz", seed=3)
        assert a.canonical_key() == b.canonical_key()

    def test_each_identity_field_changes_key(self):
        base = SimRequest("C", "557.xz")
        variants = [
            SimRequest("A", "557.xz"),
            SimRequest("C", "502.gcc"),
            SimRequest("C", "557.xz", strategy="f"),
            SimRequest("C", "557.xz", voltage_offset=-0.05),
            SimRequest("C", "557.xz", seed=1),
            SimRequest("C", "557.xz", n_cores=2),
        ]
        keys = {base.canonical_key()} | {v.canonical_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_scheduling_hints_do_not_change_identity(self):
        a = SimRequest("C", "557.xz", priority=PRIORITY_INTERACTIVE,
                       deadline_s=0.5)
        b = SimRequest("C", "557.xz", priority=PRIORITY_BULK)
        assert a.canonical_key() == b.canonical_key()

    def test_shard_key_groups_cpu_and_strategy(self):
        assert SimRequest("C", "557.xz").shard_key == \
            SimRequest("C", "502.gcc", voltage_offset=-0.05).shard_key
        assert SimRequest("C", "557.xz").shard_key != \
            SimRequest("A", "557.xz").shard_key
        assert SimRequest("C", "557.xz").shard_key != \
            SimRequest("C", "557.xz", strategy="f").shard_key

    @pytest.mark.parametrize("kwargs", [
        {"cpu": ""},
        {"workload": ""},
        {"strategy": "bogus"},
        {"voltage_offset": 0.1},
        {"seed": -1},
        {"n_cores": 0},
        {"deadline_s": 0.0},
        {"deadline_s": -2.0},
        # What the simulator rejects is rejected here too.
        {"voltage_offset": 0.0},
        {"strategy": "e", "voltage_offset": 0.0},
        {"voltage_offset": float("nan")},
        {"voltage_offset": float("-inf")},
        {"cpu": "Z"},
        {"n_cores": 9},
        # CPU B has no voltage rail: only f and e run there.
        {"cpu": "B", "strategy": "fV"},
        {"cpu": "B", "strategy": "V"},
        {"deadline_s": float("nan")},
        {"deadline_s": float("inf")},
    ])
    def test_validate_rejects(self, kwargs):
        base = {"cpu": "C", "workload": "557.xz"}
        base.update(kwargs)
        with pytest.raises(InvalidRequestError):
            SimRequest(**base).validate()

    def test_wire_roundtrip(self):
        request = SimRequest("A", "nginx", strategy="f",
                             voltage_offset=-0.07, seed=9, n_cores=2,
                             priority=PRIORITY_BULK, deadline_s=1.5)
        assert SimRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidRequestError):
            SimRequest.from_dict({"cpu": "C", "workload": "557.xz",
                                  "bogus": 1})

    def test_response_wire_roundtrip(self):
        response = SimResponse(request=SimRequest("C", "557.xz"),
                               status="ok", payload={"x": 1},
                               source="cache", latency_s=0.25, retries=1)
        back = SimResponse.from_dict(response.to_dict())
        assert back == response
        assert back.ok


class TestHistogram:
    def test_percentiles_bracket_observations(self):
        hist = Histogram([0.001, 0.01, 0.1, 1.0])
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.5)
        assert hist.percentile(0.5) == 0.01
        assert hist.percentile(0.99) == 0.01
        assert hist.percentile(1.0) == 1.0
        assert hist.n == 100

    def test_overflow_reports_max_seen(self):
        hist = Histogram([1.0])
        hist.observe(42.0)
        assert hist.percentile(0.99) == 42.0

    def test_empty(self):
        assert Histogram([1.0]).percentile(0.5) is None

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])


class TestServiceMetrics:
    def test_counters_and_snapshot_schema(self):
        metrics = ServiceMetrics()
        metrics.inc("requests_submitted")
        metrics.inc("requests_submitted", 2)
        metrics.set_gauge("queue_depth", 7)
        metrics.observe_latency(0.02)
        metrics.observe_batch(4)
        snap = metrics.snapshot()
        assert snap["counters"]["requests_submitted"] == 3
        assert snap["gauges"]["queue_depth"] == 7
        assert snap["histograms"]["latency_s"]["n"] == 1
        assert snap["histograms"]["batch_occupancy"]["p50"] == 4


class TestDeadlineScheduler:
    def test_priority_orders_first(self):
        async def scenario():
            sched = DeadlineScheduler(max_depth=8)
            sched.push(_entry(SimRequest("C", "a", priority=PRIORITY_BULK)))
            sched.push(_entry(SimRequest("C", "b",
                                         priority=PRIORITY_INTERACTIVE)))
            sched.push(_entry(SimRequest("C", "c", priority=5)))
            order = [(await sched.pop()).request.workload for _ in range(3)]
            return order

        assert asyncio.run(scenario()) == ["b", "c", "a"]

    def test_deadline_orders_within_priority(self):
        async def scenario():
            sched = DeadlineScheduler(max_depth=8)
            sched.push(_entry(SimRequest("C", "slow", deadline_s=60.0)))
            sched.push(_entry(SimRequest("C", "urgent", deadline_s=0.5)))
            sched.push(_entry(SimRequest("C", "none")))  # no deadline: last
            return [(await sched.pop()).request.workload for _ in range(3)]

        assert asyncio.run(scenario()) == ["urgent", "slow", "none"]

    def test_fifo_within_equal_priority_and_deadline(self):
        async def scenario():
            sched = DeadlineScheduler(max_depth=8)
            for name in ("first", "second", "third"):
                sched.push(_entry(SimRequest("C", name)))
            return [(await sched.pop()).request.workload for _ in range(3)]

        assert asyncio.run(scenario()) == ["first", "second", "third"]

    def test_admission_bound_raises_with_retry_after(self):
        sched = DeadlineScheduler(max_depth=2)
        sched.push(_entry(SimRequest("C", "a")))
        sched.push(_entry(SimRequest("C", "b")))
        with pytest.raises(AdmissionError) as excinfo:
            sched.push(_entry(SimRequest("C", "c")))
        assert excinfo.value.depth == 2
        assert excinfo.value.retry_after_s > 0
        assert sched.depth == 2

    def test_pop_waits_for_push(self):
        async def scenario():
            sched = DeadlineScheduler(max_depth=4)
            pop = asyncio.get_running_loop().create_task(sched.pop())
            # Let pop() block on the empty queue, then wake it: no real
            # sleeps, just explicit event-loop turns.
            for _ in range(5):
                await asyncio.sleep(0)
            assert not pop.done()
            sched.push(_entry(SimRequest("C", "late")))
            entry = await asyncio.wait_for(pop, timeout=2.0)
            return entry.request.workload

        assert asyncio.run(scenario()) == "late"

    def test_take_compatible_respects_shard_and_limit(self):
        sched = DeadlineScheduler(max_depth=16)
        for i in range(3):
            sched.push(_entry(SimRequest("C", f"c{i}")))
        sched.push(_entry(SimRequest("A", "a0")))
        taken = sched.take_compatible(SimRequest("C", "x").shard_key, 2)
        assert [e.request.workload for e in taken] == ["c0", "c1"]
        assert sched.depth == 2  # c2 and a0 remain

    def test_drain_empties_queue(self):
        sched = DeadlineScheduler(max_depth=4)
        sched.push(_entry(SimRequest("C", "a")))
        sched.push(_entry(SimRequest("C", "b")))
        drained = sched.drain()
        assert len(drained) == 2
        assert sched.depth == 0

    def test_absolute_deadline(self):
        assert absolute_deadline(SimRequest("C", "a")) == math.inf
        assert absolute_deadline(SimRequest("C", "a", deadline_s=2.0),
                                 now=100.0) == 102.0


class TestMicroBatcher:
    def test_groups_compatible_requests(self):
        async def scenario():
            sched = DeadlineScheduler(max_depth=16)
            batcher = MicroBatcher(sched, inflight=lambda: 0,
                                   max_batch_size=8, window_s=0.0)
            for i in range(3):
                sched.push(_entry(SimRequest("C", f"w{i}")))
            sched.push(_entry(SimRequest("A", "other")))
            batch = await batcher.next_batch()
            return batch

        batch = asyncio.run(scenario())
        assert isinstance(batch, Batch)
        assert batch.occupancy == 3
        assert batch.shard_key == SimRequest("C", "x").shard_key

    def test_respects_max_batch_size(self):
        async def scenario():
            sched = DeadlineScheduler(max_depth=16)
            batcher = MicroBatcher(sched, inflight=lambda: 0,
                                   max_batch_size=2, window_s=0.0)
            for i in range(5):
                sched.push(_entry(SimRequest("C", f"w{i}")))
            first = await batcher.next_batch()
            second = await batcher.next_batch()
            return first.occupancy, second.occupancy, sched.depth

        assert asyncio.run(scenario()) == (2, 2, 1)

    def test_window_accumulates_late_companions(self):
        """Virtual-time port of the flakiest timing test: with another
        request in flight, the batcher holds a 5 s window open; the
        companion arrives while it waits; the whole thing runs in
        microseconds of real time."""
        async def scenario():
            clock = FakeClock(auto_advance=False)
            sched = DeadlineScheduler(max_depth=16)
            unanswered = [SimRequest("A", "on-a-worker")]
            batcher = MicroBatcher(sched, max_batch_size=4, window_s=5.0,
                                   clock=clock,
                                   inflight=lambda: len(unanswered))
            _admit(sched, unanswered, SimRequest("C", "early"))
            task = asyncio.get_running_loop().create_task(
                batcher.next_batch())
            for _ in range(10):  # let the batcher enter its window
                await asyncio.sleep(0)
            assert clock.sleep_calls >= 1  # it is actually waiting
            _admit(sched, unanswered, SimRequest("C", "late"))
            clock.advance(10.0)  # the window elapses instantly
            batch = await asyncio.wait_for(task, timeout=2.0)
            return [e.request.workload for e in batch.entries]

        assert asyncio.run(scenario()) == ["early", "late"]

    def test_window_closes_without_companions(self):
        """With another request in flight but no companion, the entry
        dispatches once the window elapses — in virtual time, so the
        test never actually waits."""
        async def scenario():
            clock = FakeClock()
            sched = DeadlineScheduler(max_depth=16)
            unanswered = [SimRequest("A", "on-a-worker")]
            batcher = MicroBatcher(sched, max_batch_size=4, window_s=5.0,
                                   clock=clock,
                                   inflight=lambda: len(unanswered))
            start = clock.monotonic()
            _admit(sched, unanswered, SimRequest("C", "solo"))
            batch = await batcher.next_batch()
            return batch.occupancy, clock.monotonic() - start, \
                clock.sleep_calls

        occupancy, elapsed, sleeps = asyncio.run(scenario())
        assert occupancy == 1
        assert elapsed >= 5.0  # the full window, virtually
        assert sleeps >= 1

    def test_lone_request_dispatches_at_once(self):
        """Nothing else in flight: no companion can be on its way, so
        the batch never sleeps.  The clock does not advance by itself,
        so a held window would hang."""
        async def scenario():
            clock = FakeClock(auto_advance=False)
            sched = DeadlineScheduler(max_depth=16)
            unanswered = []
            batcher = MicroBatcher(sched, max_batch_size=4, window_s=5.0,
                                   clock=clock,
                                   inflight=lambda: len(unanswered))
            _admit(sched, unanswered, SimRequest("C", "solo"))
            batch = await asyncio.wait_for(batcher.next_batch(), timeout=1.0)
            return batch.occupancy, clock.sleep_calls

        assert asyncio.run(scenario()) == (1, 0)

    def test_queued_request_is_no_reason_to_hold(self):
        """The only other unanswered request is still queued under an
        incompatible shard key: holding would keep it queued, and its
        client cannot send a companion while it waits, so the batch
        dispatches at once."""
        async def scenario():
            clock = FakeClock(auto_advance=False)
            sched = DeadlineScheduler(max_depth=16)
            unanswered = []
            batcher = MicroBatcher(sched, max_batch_size=4, window_s=5.0,
                                   clock=clock,
                                   inflight=lambda: len(unanswered))
            _admit(sched, unanswered, SimRequest("C", "one"))
            _admit(sched, unanswered, SimRequest("A", "other"))
            batch = await asyncio.wait_for(batcher.next_batch(), timeout=1.0)
            return batch.occupancy, sched.depth, clock.sleep_calls

        assert asyncio.run(scenario()) == (1, 1, 0)

    def test_window_closes_when_the_other_request_is_answered(self):
        """The hold lasts only while another request is unanswered: it
        ends at the first poll after that request's answer, well inside
        the window."""
        async def scenario():
            clock = FakeClock(auto_advance=False)
            sched = DeadlineScheduler(max_depth=16)
            unanswered = [SimRequest("A", "on-a-worker")]
            batcher = MicroBatcher(sched, max_batch_size=4, window_s=5.0,
                                   clock=clock,
                                   inflight=lambda: len(unanswered))
            start = clock.monotonic()
            _admit(sched, unanswered, SimRequest("C", "solo"))
            task = asyncio.get_running_loop().create_task(
                batcher.next_batch())
            for _ in range(10):
                await asyncio.sleep(0)
            assert clock.sleep_calls == 1 and not task.done()
            del unanswered[0]  # the other request is answered
            clock.advance(1.25)  # one poll interval (window / 4)
            batch = await asyncio.wait_for(task, timeout=2.0)
            return batch.occupancy, clock.monotonic() - start, \
                clock.sleep_calls

        assert asyncio.run(scenario()) == (1, 1.25, 1)

    def test_interactive_skips_window(self):
        """Another request is on a worker, so a normal entry would hold
        the window; an interactive one dispatches at once."""
        async def scenario():
            clock = FakeClock(auto_advance=False)
            sched = DeadlineScheduler(max_depth=16)
            unanswered = [SimRequest("A", "on-a-worker")]
            batcher = MicroBatcher(sched, max_batch_size=4, window_s=5.0,
                                   clock=clock,
                                   inflight=lambda: len(unanswered))
            _admit(sched, unanswered, SimRequest(
                "C", "urgent", priority=PRIORITY_INTERACTIVE))
            # With the non-advancing clock a held window would hang
            # forever; the interactive bypass must never sleep at all.
            batch = await asyncio.wait_for(batcher.next_batch(), timeout=1.0)
            return batch.occupancy, clock.sleep_calls

        assert asyncio.run(scenario()) == (1, 0)

    def test_rejects_bad_config(self):
        sched = DeadlineScheduler(max_depth=4)
        with pytest.raises(ValueError):
            MicroBatcher(sched, inflight=lambda: 0, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(sched, inflight=lambda: 0, window_s=-1.0)


class TestFakeClock:
    def test_monotonic_starts_at_start(self):
        assert FakeClock(start=50.0).monotonic() == 50.0

    def test_advance_moves_time_forward_only(self):
        clock = FakeClock(start=0.0)
        clock.advance(2.5)
        assert clock.monotonic() == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_auto_sleep_advances_and_counts(self):
        async def scenario():
            clock = FakeClock(start=0.0)
            await clock.sleep(3.0)
            await clock.sleep(1.0)
            return clock.monotonic(), clock.sleep_calls

        assert asyncio.run(scenario()) == (4.0, 2)

    def test_negative_sleep_is_a_noop_in_time(self):
        async def scenario():
            clock = FakeClock(start=10.0)
            await clock.sleep(-5.0)
            return clock.monotonic()

        assert asyncio.run(scenario()) == 10.0

    def test_manual_sleep_waits_for_advance(self):
        async def scenario():
            clock = FakeClock(start=0.0, auto_advance=False)
            sleeper = asyncio.get_running_loop().create_task(
                clock.sleep(5.0))
            for _ in range(5):
                await asyncio.sleep(0)
            assert not sleeper.done()  # held until the test steps time
            clock.advance(5.0)
            await asyncio.wait_for(sleeper, timeout=2.0)
            return clock.monotonic()

        assert asyncio.run(scenario()) == 5.0
