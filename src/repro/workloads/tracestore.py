"""Zero-copy shared trace store over POSIX shared memory.

Multi-million-event traces are the largest objects in the system, and
both fan-out tiers used to duplicate them per process: every
``ExperimentEngine --jobs`` worker and every ``repro.service`` shard
re-synthesised (or would have to unpickle) its own private copy of the
same ``FaultableTrace``.  This module puts the trace arrays —
``indices``, ``gaps`` and ``opcodes``, laid out back-to-back in one
``multiprocessing.shared_memory`` segment per trace — behind a small
on-disk manifest, so cooperating processes **attach read-only views**
instead of copying:

* The *owner* (engine run or service) calls :meth:`SharedTraceStore.create`,
  then :meth:`~SharedTraceStore.activate` to export the store location
  through the ``REPRO_TRACE_STORE`` environment variable; worker
  processes inherit it and attach lazily via :func:`active_store`.
* Any process may :meth:`~SharedTraceStore.publish` a trace (first
  publisher wins, serialised by an advisory file lock); everyone else
  gets NumPy views of the same physical pages via
  :meth:`~SharedTraceStore.get`.  Views are marked non-writeable.
* Lifecycle is refcounted at two levels: each process holds its
  segment handles open for as long as its store object lives (the OS
  keeps the pages alive while *any* handle is open), and the owner
  unlinks every published segment on :meth:`~SharedTraceStore.cleanup`
  — called explicitly on drain and, as a crash net, from ``atexit``.
  Publishing workers hand ownership to the store owner: segments are
  explicitly unregistered from ``multiprocessing``'s resource tracker
  so a worker's death never unlinks pages other processes still map.

The tiny derived per-trace tables (the emulation-cycle table) travel in
the manifest itself; the compiled episode's block-maximum index
(``repro.core.simulator``) stays per-process (it is a few kilobytes).

Everything here degrades gracefully: if shared memory or the manifest
directory is unavailable the callers fall back to private traces, and
the ``trace_store_errors_total`` counter records it.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Iterator, Optional

import numpy as np

from repro.isa.opcodes import Opcode
from repro.obs.registry import get_registry
from repro.testkit.chaos import inject
from repro.workloads.trace import FaultableTrace

try:  # advisory locking: POSIX only, and optional (worst case: a
    import fcntl  # racing publisher wastes one duplicate segment).
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Environment variable carrying the store root to worker processes.
ENV_VAR = "REPRO_TRACE_STORE"

#: Owner-liveness marker file inside a store directory (hidden so the
#: ``*.json`` manifest globs never see it).
OWNER_MARKER = ".owner"

#: Segment handles whose mappings could not be handed off to their
#: surviving views (unexpected SharedMemory internals): held forever so
#: their __del__ never fires mid-use; the OS reclaims them at exit.
_PARKED: list = []


def _park(shm: shared_memory.SharedMemory) -> None:
    """Disarm a handle whose buffer is still exported to live views.

    The mapping's lifetime transfers to the views: the mmap object
    stays referenced through their memoryview chain and is reclaimed
    by refcount once the last view dies, while the SharedMemory
    object's own close()/__del__ becomes a no-op (otherwise it would
    raise BufferError noise at arbitrary GC points).
    """
    try:
        if shm._fd >= 0:  # the fd is not needed once mapped
            os.close(shm._fd)
            shm._fd = -1
        shm._buf = None
        shm._mmap = None
    except (AttributeError, OSError):  # pragma: no cover - internals moved
        _PARKED.append(shm)

_MANIFEST_VERSION = 1


def _unregister(name: str) -> None:
    """Detach *name* from the multiprocessing resource tracker.

    The tracker unlinks every segment a process registered when that
    process exits; with many processes sharing one segment that is
    exactly wrong — lifecycle belongs to the store owner alone.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


class SharedTraceStore:
    """A directory of trace manifests plus one shm segment per trace.

    Args:
        root: manifest directory (created by :meth:`create`).
        owner: whether this instance is responsible for unlinking the
            segments at the end of the run.
    """

    def __init__(self, root: Path, owner: bool = False) -> None:
        self.root = Path(root)
        self.owner = owner
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._traces: Dict[str, FaultableTrace] = {}
        self._refcounts: Dict[str, int] = {}
        self._closed = False
        if owner:
            atexit.register(self.cleanup)

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, tag: str = "traces") -> "SharedTraceStore":
        """Create an owning store under a fresh temporary directory.

        Also garbage-collects leftover stores whose owner process died
        without running :meth:`cleanup` (see :func:`gc_stale_stores`),
        so crashed runs cannot leak shm segments indefinitely.
        """
        gc_stale_stores()
        root = Path(tempfile.mkdtemp(prefix=f"repro-{tag}-"))
        store = cls(root, owner=True)
        # Liveness marker: lets the *next* run's gc_stale_stores tell a
        # crashed owner's leftovers apart from a store still in use.
        try:
            (root / OWNER_MARKER).write_text(
                json.dumps({"pid": os.getpid(), "tag": tag}))
        except OSError:  # pragma: no cover - tmpdir raced away
            pass
        return store

    def activate(self) -> None:
        """Export this store to child processes via ``REPRO_TRACE_STORE``."""
        os.environ[ENV_VAR] = str(self.root)
        _reset_active_cache()

    def deactivate(self) -> None:
        """Stop exporting this store to new child processes."""
        if os.environ.get(ENV_VAR) == str(self.root):
            del os.environ[ENV_VAR]
        _reset_active_cache()

    # -- publishing / attaching ----------------------------------------

    @staticmethod
    def _digest(key: str) -> str:
        return hashlib.sha256(key.encode()).hexdigest()[:24]

    def _meta_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def _pending_path(self, digest: str) -> Path:
        return self.root / f"{digest}.pending"

    def _record_path(self, digest: str) -> Path:
        return self.root / f"{digest}.shm"

    @contextmanager
    def _lock(self) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self.root / ".lock"
        with open(lock_path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def contains(self, key: str) -> bool:
        """Whether a trace was published under *key*."""
        return self._meta_path(self._digest(key)).exists()

    def publish(self, key: str, trace: FaultableTrace) -> FaultableTrace:
        """Publish *trace* under *key*; return the shared-memory view.

        First publisher wins: when another process already published
        this key, its copy is attached and returned instead.  On any
        shared-memory failure the private *trace* is returned unshared.
        """
        registry = get_registry()
        digest = self._digest(key)
        try:
            inject("tracestore.publish", key=key)
            with self._lock():
                if not self._meta_path(digest).exists():
                    _reap_marker(self._pending_path(digest))
                    self._write_segment(key, digest, trace)
                    registry.counter(
                        "trace_store_publish_total",
                        "traces published to the shared store").inc()
        except OSError:
            registry.counter("trace_store_errors_total",
                             "shared trace store failures").inc()
            return trace
        shared = self.get(key)
        return shared if shared is not None else trace

    def _write_segment(self, key: str, digest: str,
                       trace: FaultableTrace) -> None:
        indices = np.ascontiguousarray(trace.indices, dtype=np.int64)
        gaps = np.ascontiguousarray(trace.gaps(), dtype=np.int64)
        opcodes = np.ascontiguousarray(trace.opcodes, dtype=np.uint8)
        n = int(indices.size)
        total = indices.nbytes + gaps.nbytes + opcodes.nbytes
        shm_name = f"repro_{digest[:12]}_{os.getpid()}"
        # Crash-recovery marker: names the segment *before* it exists,
        # and survives a publisher dying anywhere between segment
        # creation and manifest publish.  _reap_marker / cleanup /
        # gc_stale_stores use it to unlink the orphan.
        pending = self._pending_path(digest)
        pending.write_text(json.dumps({"shm": shm_name,
                                       "pid": os.getpid()}))
        try:
            shm = shared_memory.SharedMemory(name=shm_name, create=True,
                                             size=max(total, 1))
        except FileExistsError:
            # Another store of this process holds the key under the
            # same name: the marker must not name its segment.
            pending.unlink()
            raise
        # Ownership belongs to the store owner, not whichever worker
        # happened to publish first (see _unregister).
        _unregister(shm.name)
        buf = shm.buf
        buf[:indices.nbytes] = indices.tobytes()
        off = indices.nbytes
        buf[off:off + gaps.nbytes] = gaps.tobytes()
        off += gaps.nbytes
        buf[off:off + opcodes.nbytes] = opcodes.tobytes()
        self._segments[digest] = shm

        try:
            emul = [int(c) for c in trace.emulation_cycle_table()]
        except KeyError:
            emul = None  # opcode without an emulation routine
        meta = {
            "version": _MANIFEST_VERSION,
            "key": key,
            "shm": shm.name,
            "name": trace.name,
            "n_instructions": int(trace.n_instructions),
            "ipc": float(trace.ipc),
            "n_events": n,
            "opcode_table": [op.value for op in trace.opcode_table],
            "emul_cycles": emul,
        }
        # The canonical mid-publish crash window: segment exists, the
        # manifest does not.  A "crash" fault here is exactly the
        # publisher death the .pending marker recovers from.
        inject("tracestore.segment", shm=shm_name, digest=digest)
        tmp = self._meta_path(digest).with_suffix(".tmp")
        tmp.write_text(json.dumps(meta))
        os.replace(tmp, self._meta_path(digest))
        # The marker becomes the segment's record: readers never open
        # it, so it still names the segment for _destroy_store_dir when
        # the manifest is corrupted.
        try:
            os.replace(pending, self._record_path(digest))
        except OSError:  # pragma: no cover - marker raced away
            pass

    def get(self, key: str) -> Optional[FaultableTrace]:
        """Attach the trace published under *key*, or None.

        The returned trace's arrays are read-only views of the shared
        pages; repeated calls in one process return the same object.
        """
        digest = self._digest(key)
        cached = self._traces.get(digest)
        if cached is not None:
            self._refcounts[digest] = self._refcounts.get(digest, 0) + 1
            return cached
        meta_path = self._meta_path(digest)
        registry = get_registry()
        try:
            inject("tracestore.attach", path=meta_path)
            meta = json.loads(meta_path.read_text())
            shm_name = str(meta["shm"])
            n = int(meta["n_events"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, stale or corrupt manifest: a miss, never a crash.
            return None
        try:
            inject("tracestore.shm", shm=shm_name)
            shm = self._segments.get(digest)
            if shm is None:
                shm = shared_memory.SharedMemory(name=shm_name)
                _unregister(shm.name)
                self._segments[digest] = shm
        except OSError:
            registry.counter("trace_store_errors_total",
                             "shared trace store failures").inc()
            return None
        try:
            indices = np.frombuffer(shm.buf, dtype=np.int64, count=n)
            gaps = np.frombuffer(shm.buf, dtype=np.int64, count=n,
                                 offset=indices.nbytes)
            opcodes = np.frombuffer(shm.buf, dtype=np.uint8, count=n,
                                    offset=2 * indices.nbytes)
        except ValueError:
            # Manifest/segment mismatch (stale manifest naming a
            # smaller segment): refuse the attach rather than read
            # garbage.
            registry.counter("trace_store_errors_total",
                             "shared trace store failures").inc()
            return None
        for arr in (indices, gaps, opcodes):
            arr.flags.writeable = False
        trace = FaultableTrace(
            name=str(meta["name"]),
            n_instructions=int(meta["n_instructions"]),
            ipc=float(meta["ipc"]),
            indices=indices,
            opcodes=opcodes,
            opcode_table=tuple(Opcode(v) for v in meta["opcode_table"]),
        )
        trace._gaps = gaps
        if meta.get("emul_cycles") is not None:
            trace._emul_cycles = np.array(meta["emul_cycles"])
        self._traces[digest] = trace
        self._refcounts[digest] = self._refcounts.get(digest, 0) + 1
        registry.counter("trace_store_attach_hits_total",
                         "traces attached from the shared store").inc()
        return trace

    def release(self, key: str) -> None:
        """Drop one reference to *key*; the last release in a process
        closes its mapping (the segment survives until the owner
        unlinks it)."""
        digest = self._digest(key)
        count = self._refcounts.get(digest)
        if count is None:
            return
        if count > 1:
            self._refcounts[digest] = count - 1
            return
        self._refcounts.pop(digest, None)
        self._traces.pop(digest, None)
        shm = self._segments.pop(digest, None)
        if shm is not None:
            try:
                shm.close()
            except (OSError, BufferError):  # views still alive
                _park(shm)

    # -- lifecycle -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Published / attached segment counts for this process."""
        published = len(list(self.root.glob("*.json"))) \
            if self.root.is_dir() else 0
        return {"published": published,
                "attached": len(self._segments),
                "refcounts": sum(self._refcounts.values())}

    def close(self) -> None:
        """Close every mapping this process holds (keeps segments
        alive for other processes)."""
        self._traces.clear()
        self._refcounts.clear()
        for shm in self._segments.values():
            try:
                shm.close()
            except (OSError, BufferError):  # views still alive
                _park(shm)
        self._segments.clear()

    def cleanup(self) -> None:
        """Owner teardown: close mappings, unlink every published
        segment and remove the manifest directory.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.close()
        self.deactivate()
        if not self.owner:
            return
        _destroy_store_dir(self.root)

    def __enter__(self) -> "SharedTraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


# -- crash recovery -----------------------------------------------------

def _unlink_segment(name: str) -> bool:
    """Unlink the shm segment *name*; True when it existed."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError):
        return False
    try:
        shm.unlink()
    except OSError:  # pragma: no cover - concurrent unlink
        pass
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover
        pass
    return True


def _reap_marker(marker: Path) -> None:
    """Unlink the segment a ``.pending`` marker or ``.shm`` record
    names, then the file itself.

    Also the recovery from a publisher that died mid-publish: a
    ``.pending`` marker without its manifest means the segment (if it
    got as far as existing) is an orphan no manifest will ever name,
    so the next publisher reaps both and starts clean.
    """
    try:
        info = json.loads(marker.read_text())
        shm_name = str(info["shm"])
    except (OSError, ValueError, KeyError, TypeError):
        return
    _unlink_segment(shm_name)
    try:
        marker.unlink()
    except OSError:  # pragma: no cover - raced with another reaper
        pass


def _destroy_store_dir(root: Path) -> None:
    """Unlink every segment a store directory names, then remove it.

    Shared by owner :meth:`SharedTraceStore.cleanup` and
    :func:`gc_stale_stores`; tolerates every partial-state shape a
    crash can leave (manifests, pending markers, both, neither).  A
    corrupt manifest's segment is still named by its ``.shm`` record.
    """
    if not root.is_dir():
        return
    for meta_path in root.glob("*.json"):
        try:
            meta = json.loads(meta_path.read_text())
            _unlink_segment(str(meta["shm"]))
        except (OSError, ValueError, KeyError, TypeError):
            pass
        try:
            meta_path.unlink()
        except OSError:  # pragma: no cover
            pass
    for marker in [*root.glob("*.pending"), *root.glob("*.shm")]:
        _reap_marker(marker)
    for leftover in (root / ".lock", root / OWNER_MARKER):
        try:
            leftover.unlink()
        except OSError:
            pass
    try:
        root.rmdir()
    except OSError:  # pragma: no cover - non-empty/races
        pass


def gc_stale_stores(tmp_root: Optional[Path] = None) -> int:
    """Remove sibling store directories whose owner process is dead.

    Scans *tmp_root* (default: the system temp directory) for
    ``repro-*`` directories carrying an :data:`OWNER_MARKER` whose
    recorded pid no longer exists, and destroys them — manifests,
    pending markers and the shm segments they name.  Directories
    without a marker, or with a live owner, are left alone.  Returns
    the number of stores collected.
    """
    base = Path(tmp_root) if tmp_root is not None \
        else Path(tempfile.gettempdir())
    collected = 0
    try:
        candidates = list(base.glob("repro-*"))
    except OSError:  # pragma: no cover - tmpdir unreadable
        return 0
    for root in candidates:
        marker = root / OWNER_MARKER
        if not marker.is_file():
            continue
        try:
            pid = int(json.loads(marker.read_text())["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
        if _pid_alive(pid):
            continue
        _destroy_store_dir(root)
        collected += 1
    if collected:
        get_registry().counter(
            "trace_store_gc_total",
            "stale trace stores collected at startup").inc(collected)
    return collected


def _pid_alive(pid: int) -> bool:
    """Whether a process with *pid* currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover
        return False
    return True


# -- process-wide attachment (workers) ---------------------------------

_active: Optional[SharedTraceStore] = None
_active_root: Optional[str] = None


def _reset_active_cache() -> None:
    global _active, _active_root
    if _active is not None and not _active.owner:
        _active.close()
    _active = None
    _active_root = None


def active_store() -> Optional[SharedTraceStore]:
    """The store exported through ``REPRO_TRACE_STORE``, if any.

    Worker-side entry point: attaches (read/publish, non-owning) to the
    store the parent process activated.  Returns None when no store is
    active or its directory is gone.
    """
    global _active, _active_root
    root = os.environ.get(ENV_VAR)
    if not root:
        if _active is not None:
            _reset_active_cache()
        return None
    if _active is not None and _active_root == root:
        return _active
    _reset_active_cache()
    if not Path(root).is_dir():
        return None
    _active = SharedTraceStore(Path(root), owner=False)
    _active_root = root
    return _active
