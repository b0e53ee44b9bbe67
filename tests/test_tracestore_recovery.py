"""Crash-recovery tests for the shared trace store.

The store's failure model: a publisher can die at any instruction
between creating its shm segment and publishing the manifest; a reader
can race the owner's teardown; an owner can die without running
cleanup at all.  Each case must end in a miss (and eventually a
reclaimed segment), never a wedged store, a leaked segment, or an
attach to garbage.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.isa.opcodes import Opcode
from repro.obs.registry import MetricsRegistry, set_registry
from repro.testkit.chaos import (
    CRASH_EXIT_CODE,
    ChaosController,
    FaultPlan,
    FaultSpec,
)
from repro.workloads.trace import FaultableTrace
from repro.workloads.tracestore import (
    OWNER_MARKER,
    SharedTraceStore,
    gc_stale_stores,
)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _trace(n_events=500, name="recov"):
    rng = np.random.default_rng(7)
    indices = np.sort(rng.choice(400_000, size=n_events, replace=False))
    return FaultableTrace(
        name=name, n_instructions=500_000, ipc=1.4,
        indices=indices.astype(np.int64),
        opcodes=(indices % 2).astype(np.uint8),
        opcode_table=(Opcode.VOR, Opcode.VPCMP))


#: Every test here must unlink each segment it creates.
pytestmark = pytest.mark.usefixtures("no_leaked_segments")


@pytest.fixture
def store():
    s = SharedTraceStore.create("recov")
    yield s
    s.cleanup()


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def _segment_exists(name: str) -> bool:
    try:
        shm = shared_memory.SharedMemory(name=name)
    except OSError:
        return False
    shm.close()
    return True


def _make_stale_store(root: Path, pid: int) -> dict:
    """Fabricate the on-disk shape a crashed owner leaves behind:
    one fully published trace (manifest + segment) and one mid-publish
    orphan (pending marker + segment, no manifest)."""
    root.mkdir(parents=True)
    (root / OWNER_MARKER).write_text(json.dumps({"pid": pid,
                                                 "tag": "stale"}))
    published = shared_memory.SharedMemory(
        name=f"repro_test_pub_{os.getpid()}", create=True, size=64)
    orphan = shared_memory.SharedMemory(
        name=f"repro_test_orp_{os.getpid()}", create=True, size=64)
    (root / "aaaa.json").write_text(json.dumps(
        {"version": 1, "shm": published.name, "n_events": 1}))
    (root / "bbbb.pending").write_text(json.dumps(
        {"shm": orphan.name, "pid": pid}))
    published.close()
    orphan.close()
    return {"published": published.name, "orphan": orphan.name}


def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestMidPublishCrash:
    _CHILD = """
import numpy as np
from pathlib import Path
from repro.isa.opcodes import Opcode
from repro.workloads.trace import FaultableTrace
from repro.workloads.tracestore import SharedTraceStore

rng = np.random.default_rng(7)
indices = np.sort(rng.choice(400_000, size=500, replace=False))
trace = FaultableTrace(
    name="recov", n_instructions=500_000, ipc=1.4,
    indices=indices.astype(np.int64),
    opcodes=(indices % 2).astype(np.uint8),
    opcode_table=(Opcode.VOR, Opcode.VPCMP))
store = SharedTraceStore(Path({root!r}), owner=False)
store.publish("survives", trace)   # segment-site invocation 1: safe
store.publish("orphaned", trace)   # invocation 2: crash fires here
raise SystemExit(99)  # never reached
"""

    def test_publisher_killed_between_segment_and_manifest(self, store):
        """A real child process dies inside _write_segment (after the
        segment is filled, before the manifest lands); the store must
        recover: miss on attach, reap on republish, no leaked segment."""
        plan = FaultPlan.generate(
            0, [FaultSpec("tracestore.segment", "crash", 1.0)], 10)
        controller = ChaosController(plan).activate()
        try:
            env = dict(os.environ, PYTHONPATH=_SRC)
            proc = subprocess.run(
                [sys.executable, "-c",
                 self._CHILD.format(root=str(store.root))],
                env=env, capture_output=True, text=True, timeout=120)
        finally:
            controller.cleanup()
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

        # The first publish completed; the second died mid-window.
        assert store.contains("survives")
        assert not store.contains("orphaned")
        digest = SharedTraceStore._digest("orphaned")
        pending = store._pending_path(digest)
        assert pending.exists(), "crash window must leave the marker"
        orphan_shm = json.loads(pending.read_text())["shm"]
        assert _segment_exists(orphan_shm), "crashed after creating it"

        # A reader sees a plain miss, not garbage.
        assert store.get("orphaned") is None

        # The next publisher reaps the orphan and wins cleanly.
        shared = store.publish("orphaned", _trace())
        assert shared is not None
        assert store.contains("orphaned")
        assert not pending.exists()
        assert not _segment_exists(orphan_shm), "orphan must be unlinked"
        fresh = store.get("orphaned")
        np.testing.assert_array_equal(fresh.indices, _trace().indices)

    def test_reap_pending_without_segment(self, store):
        """A publisher that died after the marker but *before* segment
        creation leaves only the marker; republish must still work."""
        digest = SharedTraceStore._digest("k")
        store._pending_path(digest).write_text(json.dumps(
            {"shm": "repro_never_created", "pid": 1}))
        shared = store.publish("k", _trace())
        assert shared is not None
        assert not store._pending_path(digest).exists()


class TestAttachVsCleanupRace:
    def test_attach_after_owner_cleanup_is_a_miss(self, store):
        store.publish("k", _trace())
        reader = SharedTraceStore(store.root, owner=False)
        store.cleanup()
        assert reader.get("k") is None
        reader.close()

    def test_segment_unlinked_between_manifest_and_attach(self, store,
                                                          registry):
        """The narrow race: the manifest read succeeds, then the owner
        unlinks the segment before the reader maps it.  Injected at the
        tracestore.shm site; must be a counted miss."""
        store.publish("k", _trace())
        reader = SharedTraceStore(store.root, owner=False)
        plan = FaultPlan.generate(
            0, [FaultSpec("tracestore.shm", "unlink", 1.0, max_fires=1)], 5)
        with ChaosController(plan):
            assert reader.get("k") is None
        assert registry.counter("trace_store_errors_total").value() == 1
        reader.close()

    def test_stale_manifest_larger_than_segment_is_refused(self, store):
        """A manifest promising more events than the segment holds must
        not hand out a view into garbage."""
        store.publish("k", _trace(n_events=100))
        digest = SharedTraceStore._digest("k")
        meta_path = store._meta_path(digest)
        meta = json.loads(meta_path.read_text())
        meta["n_events"] = meta["n_events"] * 1000
        meta_path.write_text(json.dumps(meta))
        reader = SharedTraceStore(store.root, owner=False)
        assert reader.get("k") is None
        reader.close()

    def test_corrupt_manifest_is_a_miss(self, store):
        store.publish("k", _trace())
        digest = SharedTraceStore._digest("k")
        store._meta_path(digest).write_text("{half a manifest")
        reader = SharedTraceStore(store.root, owner=False)
        assert reader.get("k") is None
        reader.close()


class TestCleanupUnlinksOnlyItsOwnSegments:
    _CHILD = """
import numpy as np
from pathlib import Path
from repro.isa.opcodes import Opcode
from repro.workloads.trace import FaultableTrace
from repro.workloads.tracestore import SharedTraceStore

indices = np.arange(0, 500_000, 1_000, dtype=np.int64)
trace = FaultableTrace(
    name="recov", n_instructions=500_000, ipc=1.4, indices=indices,
    opcodes=np.zeros(indices.size, dtype=np.uint8),
    opcode_table=(Opcode.VOR,))
store = SharedTraceStore(Path({root!r}), owner=False)
assert store.publish({key!r}, trace) is not trace
"""

    @staticmethod
    def _segment_name(store, key):
        meta_path = store._meta_path(SharedTraceStore._digest(key))
        return json.loads(meta_path.read_text())["shm"]

    def _publish_from_another_process(self, store, key):
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c",
             self._CHILD.format(root=str(store.root), key=key)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_corrupt_manifest_segment_is_unlinked(self):
        """The corrupt-manifest scenario above, then cleanup: the
        segment goes too, while another store (published from another
        process) holding the same key keeps its own."""
        other = SharedTraceStore.create("recov-other")
        try:
            self._publish_from_another_process(other, "k")
            other_shm = self._segment_name(other, "k")
            store = SharedTraceStore.create("recov")
            store.publish("k", _trace())
            own_shm = self._segment_name(store, "k")
            assert own_shm != other_shm
            store._meta_path(SharedTraceStore._digest("k")).write_text(
                "{half a manifest")
            reader = SharedTraceStore(store.root, owner=False)
            assert reader.get("k") is None
            reader.close()
            store.cleanup()
            assert not _segment_exists(own_shm)
            assert _segment_exists(other_shm)
            assert other.get("k") is not None
        finally:
            other.cleanup()
        assert not _segment_exists(other_shm)

    def test_same_key_in_two_stores_of_one_process(self):
        """A process names its segments by key and pid, so a second
        store of the same process cannot share the first one's key: it
        falls back to the private trace, and its cleanup must leave the
        first store's segment alone."""
        first = SharedTraceStore.create("recov-first")
        try:
            first.publish("k", _trace())
            first_shm = self._segment_name(first, "k")
            second = SharedTraceStore.create("recov-second")
            private = _trace()
            assert second.publish("k", private) is private
            second.cleanup()
            assert _segment_exists(first_shm)
            np.testing.assert_array_equal(first.get("k").indices,
                                          private.indices)
        finally:
            first.cleanup()
        assert not _segment_exists(first_shm)


class TestStaleStoreGc:
    def test_dead_owner_store_is_collected(self, tmp_path, registry):
        names = _make_stale_store(tmp_path / "repro-stale-1", _dead_pid())
        assert gc_stale_stores(tmp_root=tmp_path) == 1
        assert not (tmp_path / "repro-stale-1").exists()
        assert not _segment_exists(names["published"])
        assert not _segment_exists(names["orphan"])
        assert registry.counter("trace_store_gc_total").value() == 1

    def test_live_owner_store_is_left_alone(self, tmp_path, registry):
        names = _make_stale_store(tmp_path / "repro-stale-2", os.getpid())
        try:
            assert gc_stale_stores(tmp_root=tmp_path) == 0
            assert (tmp_path / "repro-stale-2").exists()
            assert _segment_exists(names["published"])
        finally:
            from repro.workloads.tracestore import _destroy_store_dir

            _destroy_store_dir(tmp_path / "repro-stale-2")

    def test_markerless_directory_is_left_alone(self, tmp_path):
        (tmp_path / "repro-other-tool").mkdir()
        (tmp_path / "repro-other-tool" / "data.json").write_text("{}")
        assert gc_stale_stores(tmp_root=tmp_path) == 0
        assert (tmp_path / "repro-other-tool" / "data.json").exists()

    def test_create_collects_leftovers_in_system_tempdir(self):
        """SharedTraceStore.create() runs the GC, so a crashed run's
        leftovers vanish the next time anyone starts a store."""
        import tempfile

        stale_root = Path(tempfile.gettempdir()) / \
            f"repro-gctest-{os.getpid()}"
        names = _make_stale_store(stale_root, _dead_pid())
        try:
            fresh = SharedTraceStore.create("gctest")
            try:
                assert not stale_root.exists()
                assert not _segment_exists(names["published"])
            finally:
                fresh.cleanup()
        finally:
            from repro.workloads.tracestore import _destroy_store_dir

            _destroy_store_dir(stale_root)
