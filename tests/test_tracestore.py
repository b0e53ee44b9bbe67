"""Tests of the zero-copy shared trace store and the layered cache.

Covers the contract the fan-out tiers rely on: publish/attach
round-trips that preserve every trace field, read-only zero-copy views,
first-publisher-wins, per-process refcounting, environment-variable
activation for worker processes, owner cleanup (and its safety for
still-attached views), and the L1-LRU-over-L2-store layering of
:func:`repro.workloads.tracecache.cached_trace`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.isa.opcodes import Opcode
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace
from repro.workloads.tracecache import (
    cached_trace,
    clear_trace_cache,
    store_key,
    trace_cache_info,
)
from repro.workloads.tracestore import ENV_VAR, SharedTraceStore, active_store

_PROFILE = WorkloadProfile(
    name="storeprof", suite="SPECint", n_instructions=500_000, ipc=1.3,
    efficient_occupancy=0.5, n_episodes=2, dense_gap=500,
    imul_density=0.1, opcode_mix={Opcode.VOR: 0.7, Opcode.VPCMP: 0.3})


def _trace(n_events=1000, name="stored"):
    rng = np.random.default_rng(42)
    indices = np.sort(rng.choice(900_000, size=n_events, replace=False))
    return FaultableTrace(
        name=name, n_instructions=1_000_000, ipc=1.5,
        indices=indices.astype(np.int64),
        opcodes=(indices % 2).astype(np.uint8),
        opcode_table=(Opcode.VOR, Opcode.VPCMP))


#: Every test here must unlink each segment it creates.
pytestmark = pytest.mark.usefixtures("no_leaked_segments")


@pytest.fixture
def store():
    s = SharedTraceStore.create("test")
    yield s
    s.cleanup()


@pytest.fixture
def no_env(monkeypatch):
    """Make sure no ambient store leaks into (or out of) a test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(ENV_VAR, raising=False)


class TestPublishAttach:
    def test_round_trip_preserves_every_field(self, store):
        original = _trace()
        shared = store.publish("k", original)
        assert shared is not original  # a view, not the private copy
        assert shared.name == original.name
        assert shared.n_instructions == original.n_instructions
        assert shared.ipc == original.ipc
        assert shared.opcode_table == original.opcode_table
        np.testing.assert_array_equal(shared.indices, original.indices)
        np.testing.assert_array_equal(shared.opcodes, original.opcodes)
        np.testing.assert_array_equal(shared.gaps(), original.gaps())
        np.testing.assert_array_equal(shared.emulation_cycle_table(),
                                      original.emulation_cycle_table())

    def test_views_are_read_only(self, store):
        shared = store.publish("k", _trace())
        for arr in (shared.indices, shared.opcodes, shared.gaps()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_attach_is_zero_copy_and_idempotent(self, store):
        store.publish("k", _trace())
        first = store.get("k")
        second = store.get("k")
        assert first is second  # same object per process
        # The arrays are backed by the shared segment, not fresh heaps.
        assert first.indices.base is not None

    def test_first_publisher_wins(self, store):
        a = store.publish("k", _trace(name="first"))
        b = store.publish("k", _trace(name="second"))
        assert b is a
        assert store.get("k").name == "first"

    def test_contains_and_missing_get(self, store):
        assert not store.contains("nope")
        assert store.get("nope") is None
        store.publish("yes", _trace())
        assert store.contains("yes")

    def test_empty_trace_round_trips(self, store):
        empty = FaultableTrace(
            name="empty", n_instructions=1000, ipc=1.0,
            indices=np.array([], dtype=np.int64),
            opcodes=np.array([], dtype=np.uint8), opcode_table=())
        shared = store.publish("e", empty)
        assert shared.n_events == 0
        assert shared.opcode_table == ()

    def test_distinct_keys_get_distinct_segments(self, store):
        store.publish("a", _trace(name="a"))
        store.publish("b", _trace(name="b"))
        assert store.stats()["published"] == 2
        assert store.get("a").name == "a"
        assert store.get("b").name == "b"


class TestLifecycle:
    def test_refcounts_and_release(self, store):
        store.publish("k", _trace())  # publish holds the first reference
        store.get("k")
        assert store.stats()["refcounts"] == 2
        store.release("k")
        assert store.stats()["refcounts"] == 1
        store.release("k")
        assert store.stats()["refcounts"] == 0
        assert store.stats()["attached"] == 0
        # The segment itself survives for other processes.
        assert store.contains("k")
        assert store.get("k") is not None

    def test_release_of_unknown_key_is_a_noop(self, store):
        store.release("never-seen")

    def test_cleanup_removes_root_and_is_idempotent(self):
        store = SharedTraceStore.create("test")
        store.publish("k", _trace())
        root = store.root
        store.cleanup()
        assert not root.exists()
        store.cleanup()  # second call must not raise

    def test_cleanup_keeps_attached_views_readable(self):
        """Unlinking drops the name; mapped pages live on by refcount."""
        store = SharedTraceStore.create("test")
        shared = store.publish("k", _trace())
        expected = shared.indices.copy()
        store.cleanup()
        np.testing.assert_array_equal(shared.indices, expected)
        assert int(shared.gaps().max()) > 0


class TestActivation:
    def test_activate_exports_and_deactivate_clears(self, no_env):
        store = SharedTraceStore.create("test")
        try:
            store.activate()
            assert os.environ[ENV_VAR] == str(store.root)
            attached = active_store()
            assert attached is not None
            assert attached.root == store.root
            assert not attached.owner
            store.deactivate()
            assert ENV_VAR not in os.environ
            assert active_store() is None
        finally:
            store.cleanup()

    def test_cleanup_deactivates(self, no_env):
        store = SharedTraceStore.create("test")
        store.activate()
        store.cleanup()
        assert ENV_VAR not in os.environ

    def test_cross_store_publish_get(self, no_env):
        """A non-owning attachment (what a worker holds) sees traces
        published through the owner, and vice versa."""
        owner = SharedTraceStore.create("test")
        try:
            owner.activate()
            worker = active_store()
            owner.publish("k", _trace(name="from-owner"))
            got = worker.get("k")
            assert got is not None and got.name == "from-owner"
            worker.publish("w", _trace(name="from-worker"))
            assert owner.get("w").name == "from-worker"
        finally:
            owner.cleanup()


class TestLayeredCache:
    def test_l1_hit_returns_same_object(self, no_env):
        clear_trace_cache()
        first = cached_trace(_PROFILE, seed=0)
        assert cached_trace(_PROFILE, seed=0) is first
        assert trace_cache_info()["entries"] >= 1

    def test_miss_publishes_to_active_store(self, no_env):
        store = SharedTraceStore.create("test")
        try:
            store.activate()
            clear_trace_cache()
            trace = cached_trace(_PROFILE, seed=3)
            key = store_key(_PROFILE, 3)
            assert store.contains(key)
            # The L1 entry is the shared view, not a private array.
            assert not trace.indices.flags.writeable
        finally:
            store.cleanup()
            clear_trace_cache()

    def test_l1_cleared_second_call_attaches(self, no_env):
        store = SharedTraceStore.create("test")
        try:
            store.activate()
            clear_trace_cache()
            first = cached_trace(_PROFILE, seed=4)
            clear_trace_cache()
            second = cached_trace(_PROFILE, seed=4)
            # Served through the store's per-process attachment (the
            # same shared view), not re-synthesised.
            assert second is first
            assert not second.indices.flags.writeable
        finally:
            store.cleanup()
            clear_trace_cache()

    def test_shared_trace_simulates_identically(self, no_env):
        """A simulation over the attached read-only view must equal one
        over the private trace (the arrays are bit-identical)."""
        from repro.core.batchsim import SweepConfig, simulate_sweep
        from repro.core.suit import SuitSystem

        clear_trace_cache()
        private = cached_trace(_PROFILE, seed=0)
        suit = SuitSystem.for_cpu("C", voltage_offset=-0.097, seed=0)
        suit.prime_trace(_PROFILE, private)
        reference = suit.run_profile(_PROFILE)

        store = SharedTraceStore.create("test")
        try:
            store.activate()
            clear_trace_cache()
            shared_suit = SuitSystem.for_cpu("C", voltage_offset=-0.097,
                                             seed=0)
            result = shared_suit.run_profile(_PROFILE)
            assert result.duration_s == reference.duration_s
            assert result.energy_rel == reference.energy_rel
            assert result.state_time == reference.state_time
            assert result.n_exceptions == reference.n_exceptions
            [swept] = simulate_sweep(
                shared_suit.cpu, _PROFILE, cached_trace(_PROFILE, seed=0),
                [SweepConfig()], params=shared_suit.params,
                n_cores=shared_suit.n_cores)
            assert swept.duration_s == reference.duration_s
        finally:
            store.cleanup()
            clear_trace_cache()
