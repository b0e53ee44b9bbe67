"""Deterministic, seed-driven fault injection for the whole sim stack.

SUIT's premise is surviving induced faults; this module holds the
reproduction stack to the same standard.  Production modules call
:func:`inject` at named **hook points** ("sites"):

* ``workers.dispatch`` / ``workers.batch`` / ``workers.request`` —
  the sharded worker tier (kill a pool worker mid-batch, hold a worker
  past its deadline, fail one request).
* ``server.admission`` / ``server.frame`` — the asyncio server
  (admission-queue overflow, connection drop, garbled frame).
* ``tracestore.publish`` / ``tracestore.attach`` /
  ``tracestore.segment`` — the shared trace store (publish failure,
  stale/corrupt manifest, shm segment unlinked under readers).
* ``cache.entry`` / ``cache.put`` — the on-disk result cache
  (corrupted / truncated / vanished entries, write failures).

When no :class:`ChaosController` is active, :func:`inject` is a
two-comparison no-op — the hooks cost nothing in production.

Determinism: a :class:`FaultPlan` is generated **up front** from a
seed.  For every (site, kind) pair a private PRNG — seeded by
``sha256(seed, site, kind)`` — walks invocation indices ``1..horizon``
and marks which invocations fire.  The plan is a pure function of
``(seed, specs, horizon)``; replaying a chaos run with the same seed
replays the identical schedule.  Process-killing faults never fire on
a site's *first* invocation, so a freshly recycled worker can always
make progress (no livelock under high kill rates).

Worker processes participate through the ``REPRO_CHAOS_PLAN``
environment variable: :meth:`ChaosController.activate` serialises the
plan to a JSON file and exports its path; pool workers lazily load it
on their first :func:`inject` call and append every fired fault to a
shared ``fired.jsonl`` log (O_APPEND, one JSON object per line), which
:meth:`ChaosController.report` aggregates.  Every fired injection is
also counted in the :mod:`repro.obs` default registry
(``chaos_injections_total{site=...}``).

Fault kinds with built-in effects:

* ``raise``   — raise ``exception`` (resolved from a fixed whitelist).
* ``crash``   — ``os._exit(3)``: a hard process death, no cleanup.
* ``sleep``   — ``time.sleep(param)``: a slow worker / stalled stage.
* ``corrupt`` — bit-flip and truncate the file at ``ctx["path"]``.
* ``unlink``  — delete the file at ``ctx["path"]``, or unlink the
  POSIX shm segment named ``ctx["shm"]``.

Any other kind (``kill_worker``, ``garble``, ...) has no built-in
effect; :func:`inject` returns the fired kinds and the *site*
interprets them — that is how value-level faults (e.g. rewriting a
protocol frame) stay next to the code that owns the value.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment variable carrying the plan file path to worker processes.
ENV_PLAN = "REPRO_CHAOS_PLAN"

#: Exit code used by the ``crash`` effect (mirrors the ``__crash__``
#: workload hook of :mod:`repro.service.workers`).
CRASH_EXIT_CODE = 3

#: Fault kinds whose effect kills the current process; the plan
#: generator never schedules these on a site's first invocation.
_PROCESS_KILLING_KINDS = frozenset({"crash"})

#: Exceptions the ``raise`` kind may throw, by name.  A whitelist, not
#: ``eval``: the plan file crosses a process boundary.
def _exception_factory(name: str) -> BaseException:
    if name == "AdmissionError":
        from repro.service.scheduler import AdmissionError

        return AdmissionError(1 << 30, 0.05)
    if name == "BrokenExecutor":
        from concurrent.futures import BrokenExecutor

        return BrokenExecutor("injected executor breakage")
    plain = {
        "OSError": OSError,
        "ConnectionError": ConnectionError,
        "ConnectionResetError": ConnectionResetError,
        "TimeoutError": TimeoutError,
        "RuntimeError": RuntimeError,
        "ValueError": ValueError,
    }
    if name not in plain:
        raise ValueError(f"unknown injectable exception {name!r}")
    return plain[name]("injected fault")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault type at one site.

    Attributes:
        site: hook-point name the fault applies to.
        kind: fault kind ("raise", "crash", "sleep", "corrupt",
            "unlink", or a site-interpreted kind).
        rate: per-invocation firing probability used when generating
            the plan (0..1).
        max_fires: cap on how many invocations fire (None: unlimited).
        param: numeric parameter (sleep seconds).
        exception: exception name for the ``raise`` kind.
    """

    site: str
    kind: str
    rate: float
    max_fires: Optional[int] = None
    param: float = 0.0
    exception: str = "OSError"

    def to_json_dict(self) -> dict:
        """Plain-JSON form (plan file / report)."""
        return {"site": self.site, "kind": self.kind, "rate": self.rate,
                "max_fires": self.max_fires, "param": self.param,
                "exception": self.exception}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultSpec":
        """Rebuild from :meth:`to_json_dict` output."""
        return cls(site=payload["site"], kind=payload["kind"],
                   rate=float(payload["rate"]),
                   max_fires=payload.get("max_fires"),
                   param=float(payload.get("param", 0.0)),
                   exception=payload.get("exception", "OSError"))


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled injection: fire *kind* on invocation *index* of *site*."""

    site: str
    index: int
    kind: str
    param: float = 0.0
    exception: str = "OSError"

    def to_json_dict(self) -> dict:
        """Plain-JSON form."""
        return {"site": self.site, "index": self.index, "kind": self.kind,
                "param": self.param, "exception": self.exception}


def _site_rng(seed: int, site: str, kind: str) -> random.Random:
    """The private PRNG of one (site, kind) schedule."""
    material = f"{seed}\x1f{site}\x1f{kind}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class FaultPlan:
    """The full, deterministic injection schedule of one chaos run.

    Generate with :meth:`generate` — a pure function of
    ``(seed, specs, horizon)`` — or rebuild a serialized plan with
    :meth:`from_json_dict`.
    """

    seed: int
    horizon: int
    specs: List[FaultSpec] = field(default_factory=list)
    entries: List[PlannedFault] = field(default_factory=list)
    _by_site: Dict[str, Dict[int, List[PlannedFault]]] = \
        field(default_factory=dict, repr=False)

    @classmethod
    def generate(cls, seed: int, specs: Sequence[FaultSpec],
                 horizon: int) -> "FaultPlan":
        """Draw the schedule for *specs* over ``1..horizon`` invocations."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        entries: List[PlannedFault] = []
        for spec in sorted(specs, key=lambda s: (s.site, s.kind)):
            rng = _site_rng(seed, spec.site, spec.kind)
            fired = 0
            first_allowed = 2 if spec.kind in _PROCESS_KILLING_KINDS else 1
            for index in range(1, horizon + 1):
                hit = rng.random() < spec.rate
                if not hit or index < first_allowed:
                    continue
                if spec.max_fires is not None and fired >= spec.max_fires:
                    break
                fired += 1
                entries.append(PlannedFault(
                    site=spec.site, index=index, kind=spec.kind,
                    param=spec.param, exception=spec.exception))
        plan = cls(seed=int(seed), horizon=int(horizon),
                   specs=list(specs), entries=entries)
        plan._index()
        return plan

    def _index(self) -> None:
        """Build the by-site lookup table."""
        table: Dict[str, Dict[int, List[PlannedFault]]] = {}
        for entry in self.entries:
            table.setdefault(entry.site, {}).setdefault(
                entry.index, []).append(entry)
        self._by_site = table

    def at(self, site: str, index: int) -> List[PlannedFault]:
        """The faults scheduled on invocation *index* of *site*."""
        return self._by_site.get(site, {}).get(index, [])

    @property
    def sites(self) -> Tuple[str, ...]:
        """Every site with at least one scheduled fault, sorted."""
        return tuple(sorted(self._by_site))

    def to_json_dict(self) -> dict:
        """Plain-JSON form (deterministic: sorted entries)."""
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "specs": [s.to_json_dict() for s in self.specs],
            "entries": [e.to_json_dict() for e in sorted(
                self.entries, key=lambda e: (e.site, e.index, e.kind))],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild from :meth:`to_json_dict` output."""
        plan = cls(
            seed=int(payload["seed"]), horizon=int(payload["horizon"]),
            specs=[FaultSpec.from_json_dict(s) for s in payload["specs"]],
            entries=[PlannedFault(site=e["site"], index=int(e["index"]),
                                  kind=e["kind"],
                                  param=float(e.get("param", 0.0)),
                                  exception=e.get("exception", "OSError"))
                     for e in payload["entries"]])
        plan._index()
        return plan


def _corrupt_file(path: str) -> None:
    """Bit-flip the first byte and truncate the file at *path* — the
    on-disk damage a torn write or rotting medium leaves behind."""
    try:
        with open(path, "r+b") as handle:
            data = handle.read()
            if not data:
                return
            handle.seek(0)
            handle.write(bytes([data[0] ^ 0xFF]) + data[1:len(data) // 2])
            handle.truncate()
    except OSError:
        pass  # the file vanished first: that is chaos too


def _unlink_target(ctx: dict) -> None:
    """Delete the file at ``ctx["path"]`` or the shm segment ``ctx["shm"]``."""
    path = ctx.get("path")
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass
        return
    shm_name = ctx.get("shm")
    if shm_name is not None:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=shm_name)
            segment.unlink()
            segment.close()
        except (OSError, ValueError):
            pass


class ChaosController:
    """Executes a :class:`FaultPlan` against the live hook points.

    One controller per process; :meth:`activate` installs it as the
    process-wide target of :func:`inject` and (optionally) exports the
    plan to child processes.  Thread-safe: the asyncio loop, executor
    callback threads and thread-tier workers may all hit sites
    concurrently — each site keeps one atomic invocation counter.

    Args:
        plan: the schedule to execute.
        log_path: append-only JSONL file recording every fired fault;
            shared with worker processes so :meth:`report` sees their
            firings too.  None keeps the record in-memory only.
    """

    def __init__(self, plan: FaultPlan,
                 log_path: Optional[Path] = None) -> None:
        """See class docstring."""
        import threading

        self.plan = plan
        self.log_path = Path(log_path) if log_path is not None else None
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._fired: List[dict] = []
        self._plan_dir: Optional[Path] = None

    # -- the hot path ---------------------------------------------------

    def on_inject(self, site: str, ctx: dict) -> Tuple[str, ...]:
        """Count one invocation of *site*; fire whatever the plan says.

        Returns the kinds of fired faults that have **no** built-in
        effect, for the site to interpret.  Built-in effects run here
        (and ``raise`` kinds propagate out of this call).
        """
        with self._lock:
            index = self._counters.get(site, 0) + 1
            self._counters[site] = index
        faults = self.plan.at(site, index)
        if not faults:
            return ()
        site_kinds: List[str] = []
        for fault in faults:
            self._record(fault, ctx)
            if fault.kind == "raise":
                raise _exception_factory(fault.exception)
            if fault.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if fault.kind == "sleep":
                time.sleep(fault.param)
            elif fault.kind == "corrupt":
                if ctx.get("path") is not None:
                    _corrupt_file(str(ctx["path"]))
            elif fault.kind == "unlink":
                _unlink_target(ctx)
            else:
                site_kinds.append(fault.kind)
        return tuple(site_kinds)

    def _record(self, fault: PlannedFault, ctx: dict) -> None:
        """Log one firing (memory, JSONL file, obs metrics) — before the
        effect runs, so even a ``crash`` leaves its trace."""
        entry = {"site": fault.site, "index": fault.index,
                 "kind": fault.kind, "pid": os.getpid()}
        with self._lock:
            self._fired.append(entry)
        if self.log_path is not None:
            line = json.dumps(entry, sort_keys=True) + "\n"
            try:
                with open(self.log_path, "a", encoding="utf-8") as handle:
                    handle.write(line)
            except OSError:
                pass  # the log is best-effort; the plan is the truth
        try:
            from repro.obs.registry import get_registry

            get_registry().counter(
                "chaos_injections_total", "chaos faults fired, by site",
                label_names=("site",)).inc(site=fault.site)
        except Exception:  # pragma: no cover - metrics must never fault
            pass

    # -- results --------------------------------------------------------

    def invocations(self) -> Dict[str, int]:
        """Per-site invocation counts seen by *this* process."""
        with self._lock:
            return dict(self._counters)

    def fired(self) -> List[dict]:
        """Every fired fault, all processes, sorted ``(site, index, kind)``.

        Reads the shared JSONL log when one is attached (covering
        worker-process firings); otherwise the in-memory record.
        """
        entries: List[dict] = []
        if self.log_path is not None and self.log_path.exists():
            try:
                with open(self.log_path, encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if line:
                            entries.append(json.loads(line))
            except (OSError, ValueError):
                entries = []
        if not entries:
            with self._lock:
                entries = list(self._fired)
        return sorted(entries,
                      key=lambda e: (e["site"], e["index"], e["kind"]))

    def report(self) -> dict:
        """The injected-fault report: schedule + what actually fired.

        The ``schedule`` section is a pure function of the seed; the
        ``injected`` section is deterministic whenever the per-site
        invocation sequences are (see ``docs/testing.md``).  The
        ``pid`` field is stripped from fired entries so reports from
        replayed runs compare equal byte-for-byte.
        """
        fired = [{k: v for k, v in entry.items() if k != "pid"}
                 for entry in self.fired()]
        by_site: Dict[str, int] = {}
        for entry in fired:
            by_site[entry["site"]] = by_site.get(entry["site"], 0) + 1
        return {"seed": self.plan.seed,
                "schedule": self.plan.to_json_dict(),
                "injected": {"total": len(fired), "by_site": by_site,
                             "fired": fired}}

    # -- lifecycle ------------------------------------------------------

    def activate(self, export: bool = True) -> "ChaosController":
        """Install as the process-wide controller; optionally export the
        plan (and the shared firing log) to child processes."""
        global _CONTROLLER
        if export:
            if self._plan_dir is None:
                self._plan_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
                plan_path = self._plan_dir / "plan.json"
                plan_path.write_text(json.dumps(self.plan.to_json_dict()))
                if self.log_path is None:
                    self.log_path = self._plan_dir / "fired.jsonl"
            os.environ[ENV_PLAN] = str(self._plan_dir / "plan.json")
        _CONTROLLER = self
        return self

    def deactivate(self) -> None:
        """Uninstall; stop exporting to new child processes."""
        global _CONTROLLER
        if _CONTROLLER is self:
            _CONTROLLER = None
        if self._plan_dir is not None and \
                os.environ.get(ENV_PLAN) == str(self._plan_dir / "plan.json"):
            del os.environ[ENV_PLAN]

    def cleanup(self) -> None:
        """Deactivate and remove the exported plan directory."""
        self.deactivate()
        if self._plan_dir is not None:
            for name in ("plan.json", "fired.jsonl"):
                try:
                    (self._plan_dir / name).unlink()
                except OSError:
                    pass
            try:
                self._plan_dir.rmdir()
            except OSError:
                pass
            self._plan_dir = None

    def __enter__(self) -> "ChaosController":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.cleanup()


#: The process-wide active controller (None: injection disabled).
_CONTROLLER: Optional[ChaosController] = None

#: Plan path this process already loaded from the environment, so a
#: worker builds its controller exactly once.
_LOADED_PLAN: Optional[str] = None


def get_controller() -> Optional[ChaosController]:
    """The active controller: installed in-process, or lazily loaded
    from ``REPRO_CHAOS_PLAN`` (worker processes).  None when chaos is
    off."""
    global _CONTROLLER, _LOADED_PLAN
    if _CONTROLLER is not None:
        return _CONTROLLER
    plan_path = os.environ.get(ENV_PLAN)
    if not plan_path or plan_path == _LOADED_PLAN:
        return None
    _LOADED_PLAN = plan_path
    try:
        payload = json.loads(Path(plan_path).read_text())
        plan = FaultPlan.from_json_dict(payload)
    except (OSError, ValueError, KeyError):
        return None
    _CONTROLLER = ChaosController(
        plan, log_path=Path(plan_path).parent / "fired.jsonl")
    return _CONTROLLER


def install_controller(controller: Optional[ChaosController]) -> None:
    """Set (or, with None, clear) the process-wide controller directly."""
    global _CONTROLLER, _LOADED_PLAN
    _CONTROLLER = controller
    if controller is None:
        _LOADED_PLAN = None


def inject(site: str, **ctx: object) -> Tuple[str, ...]:
    """The hook production code calls at a named fault-injection site.

    No-op (returns ``()``) unless a :class:`ChaosController` is active
    in this process or exported through ``REPRO_CHAOS_PLAN``.  Returns
    the fired site-interpreted kinds; built-in effects (crash, sleep,
    file corruption, raises) happen inside the call.
    """
    controller = _CONTROLLER
    if controller is None:
        if ENV_PLAN not in os.environ:
            return ()
        controller = get_controller()
        if controller is None:
            return ()
    return controller.on_inject(site, ctx)
