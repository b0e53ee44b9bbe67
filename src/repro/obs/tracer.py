"""Structured tracing: typed span/instant events with bounded recording.

The tracer records the *why* behind SUIT's numbers: every ``#DO`` trap,
emulate-vs-switch decision, p-state change, voltage settle and timer
fire the simulator takes, plus wall-clock spans from the engine and the
service.  Events land in a bounded ring buffer (oldest dropped first,
with a drop counter) and export as

* **Chrome trace-event JSON** (:meth:`Tracer.to_chrome_trace` /
  :meth:`Tracer.export_chrome`) — open the file in ``chrome://tracing``
  or https://ui.perfetto.dev, and
* **JSON lines** (:meth:`Tracer.export_jsonl`) — one event object per
  line for ad-hoc ``jq``/pandas analysis.

Two time domains share one trace as two Chrome "processes": simulated
seconds (:data:`TRACK_SIM`, what the simulator and kernel emit) and
wall-clock seconds since tracer creation (:data:`TRACK_WALL`, what
engine/service spans emit).  Both are exported in microseconds, the
trace-event format's native unit.

Tracing is **off by default and zero-cost when off**: the global tracer
is a :class:`NullTracer` whose ``enabled`` flag is ``False``, and every
instrumentation site guards on that single boolean before building any
event.  :func:`enable_tracing` swaps in a recording tracer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional

#: Chrome "process" ids of the two time domains.
TRACK_SIM = 1
TRACK_WALL = 2

_TRACK_NAMES = {TRACK_SIM: "simulated time", TRACK_WALL: "wall clock"}

#: Event phases used here (a subset of the trace-event format).
PHASE_INSTANT = "i"
PHASE_COMPLETE = "X"
_VALID_PHASES = frozenset({PHASE_INSTANT, PHASE_COMPLETE, "B", "E", "M"})


@dataclass
class TraceEvent:
    """One recorded event.

    Attributes:
        name: event name ("#DO trap", "p-state change", ...).
        cat: category ("sim", "kernel", "engine", "service").
        ph: trace-event phase ("i" instant, "X" complete).
        ts_us: start timestamp in microseconds (domain of ``pid``).
        dur_us: duration in microseconds ("X" events only).
        pid: time-domain track (:data:`TRACK_SIM` / :data:`TRACK_WALL`).
        tid: thread/lane id within the track.
        args: optional JSON-ready payload.
    """

    name: str
    cat: str
    ph: str
    ts_us: float
    dur_us: Optional[float] = None
    pid: int = TRACK_WALL
    tid: int = 0
    args: Optional[dict] = None

    def to_chrome(self) -> dict:
        """The event as a Chrome trace-event object."""
        event: Dict[str, object] = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts": self.ts_us, "pid": self.pid, "tid": self.tid,
        }
        if self.ph == PHASE_COMPLETE:
            event["dur"] = 0.0 if self.dur_us is None else self.dur_us
        if self.ph == PHASE_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if self.args:
            event["args"] = self.args
        return event


class Tracer:
    """Bounded ring-buffer recorder of :class:`TraceEvent`\\ s.

    Args:
        capacity: ring-buffer size; the oldest events are dropped (and
            counted in :attr:`n_dropped`) once it fills.
    """

    enabled = True

    def __init__(self, capacity: int = 1_000_000) -> None:
        """See class docstring."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        #: Wall-clock time (``time.time()``) at tracer creation.  Every
        #: wall-track timestamp is "seconds since creation", so this
        #: anchors the trace to the wall clock (logs, other traces).
        self.origin_unix_s = time.time()
        self.n_dropped = 0

    def now_s(self) -> float:
        """Wall-clock seconds since tracer creation (the wall track's ts)."""
        return time.perf_counter() - self._epoch

    # -- recording ---------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self.n_dropped += 1
            self._events.append(event)

    def instant(self, name: str, cat: str = "app",
                ts_s: Optional[float] = None, args: Optional[dict] = None,
                track: int = TRACK_WALL, tid: int = 0) -> None:
        """Record a zero-duration event.

        *ts_s* is in seconds of the *track*'s domain; omit it to stamp
        wall-clock seconds since tracer creation.
        """
        if ts_s is None:
            ts_s = time.perf_counter() - self._epoch
        self._record(TraceEvent(name=name, cat=cat, ph=PHASE_INSTANT,
                                ts_us=ts_s * 1e6, pid=track, tid=tid,
                                args=args))

    def complete(self, name: str, cat: str, ts_s: float, dur_s: float,
                 args: Optional[dict] = None, track: int = TRACK_WALL,
                 tid: int = 0) -> None:
        """Record a span with an explicit start and duration (seconds)."""
        self._record(TraceEvent(name=name, cat=cat, ph=PHASE_COMPLETE,
                                ts_us=ts_s * 1e6, dur_us=dur_s * 1e6,
                                pid=track, tid=tid, args=args))

    @contextmanager
    def span(self, name: str, cat: str = "app",
             args: Optional[dict] = None, tid: int = 0) -> Iterator[None]:
        """Context manager recording a wall-clock span around its body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            now = time.perf_counter()
            self.complete(name, cat, ts_s=start - self._epoch,
                          dur_s=now - start, args=args, track=TRACK_WALL,
                          tid=tid)

    # -- reading / export --------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Snapshot of the recorded events (recording order)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        """Drop every recorded event and reset the drop counter."""
        with self._lock:
            self._events.clear()
            self.n_dropped = 0

    def to_chrome_trace(self) -> dict:
        """The buffer as a Chrome trace-event JSON object.

        Events are sorted by ``(pid, ts)`` so each track's timeline is
        monotonic; process-name metadata labels the two time domains.
        """
        events = sorted(self.events(), key=lambda e: (e.pid, e.ts_us))
        chrome: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}}
            for pid, label in sorted(_TRACK_NAMES.items())
        ]
        chrome.extend(event.to_chrome() for event in events)
        return {"traceEvents": chrome, "displayTimeUnit": "ms",
                "otherData": {"n_dropped": self.n_dropped,
                              "origin_unix_s": self.origin_unix_s}}

    def export_chrome(self, path) -> Path:
        """Write the Chrome trace JSON to *path*; returns the path."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")
        return path

    def export_jsonl(self, path) -> Path:
        """Write one JSON object per event to *path*; returns the path."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(json.dumps(event.to_chrome(), sort_keys=True))
                handle.write("\n")
        return path


class NullTracer(Tracer):
    """The default no-op tracer: records nothing, costs one bool check.

    Instrumentation sites guard on :attr:`enabled`, so with this tracer
    installed no event object is ever built; the overridden methods
    below only protect callers that skip the guard.
    """

    enabled = False

    def __init__(self) -> None:
        """A capacity-1 buffer that is never written."""
        super().__init__(capacity=1)

    def _record(self, event: TraceEvent) -> None:
        pass

    @contextmanager
    def span(self, name: str, cat: str = "app",
             args: Optional[dict] = None, tid: int = 0) -> Iterator[None]:
        """No-op span: no clock reads, no recording."""
        yield


#: The process-wide tracer; NullTracer until :func:`enable_tracing`.
_TRACER: Tracer = NullTracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (a :class:`NullTracer` when disabled)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install *tracer* process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable_tracing(capacity: int = 1_000_000) -> Tracer:
    """Install (and return) a recording tracer with *capacity* events."""
    tracer = Tracer(capacity=capacity)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Restore the no-op tracer."""
    set_tracer(NullTracer())


def validate_chrome_trace(trace: dict) -> int:
    """Minimal schema check of a Chrome trace-event object.

    Verifies the ``traceEvents`` array exists and every event carries a
    string ``name``, a known ``ph`` and a numeric ``ts`` (plus a numeric
    ``dur`` for complete events).  Returns the number of non-metadata
    events; raises ``ValueError`` on the first violation.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    n = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"event {i} has no string 'name'")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"event {i} has no numeric 'ts'")
        if ph == PHASE_COMPLETE and not isinstance(event.get("dur"),
                                                   (int, float)):
            raise ValueError(f"event {i} is 'X' without numeric 'dur'")
        n += 1
    return n
