"""Differential-testing oracle over the simulation stack.

*V0LTpwn* (and SUIT's own threat model) make the point that the
dangerous failure mode of an undervolted core is not the crash — it is
the **silently wrong answer**.  The same holds for this reproduction's
execution stack: a worker pool that loses a process, a shared-memory
segment that vanishes under its readers, or a cache entry that rots on
disk must all end in either a *correct* result or an *explicit*
failure, never a plausible-looking wrong payload.

The :class:`DifferentialOracle` checks exactly that.  It takes one
canonical request set and replays it through every execution channel
the stack offers:

* **reference** — a width-1 :func:`~repro.core.suit.evaluate` per
  request, of its :attr:`~repro.service.request.SimRequest.point`.
* **sweep**  — one ``evaluate`` over the whole set, so requests sharing
  a trace and a deadline ride one sweep.
* **batch**  — :func:`repro.service.workers.execute_batch`, the exact
  code pool workers run (fault hooks included).
* **engine** — two independent :class:`ExperimentEngine` runs compared
  via their canonical report bytes.
* **service** — a live :class:`SimulationService` (usually under an
  active :class:`~repro.testkit.chaos.ChaosController`).

Comparisons are strict ``==`` on the jsonified payloads.  Explicit
failures (status ``failed``/``rejected``/``timeout``) are *degraded* —
allowed under chaos; an ``ok`` response whose payload differs from the
reference is *wrong* — never allowed.

The reference is always computed with chaos suspended (the controller
and the exported plan are stashed for the duration), so the yardstick
itself cannot be bent by the faults it measures against.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.core.suit import evaluate
from repro.runtime.serialization import jsonify
from repro.service.request import STATUS_OK, SimRequest
from repro.testkit import chaos

#: CPU models / workloads / strategies the canonical set cycles
#: through: small enough to stay tier-1-fast, varied enough to exercise
#: grouping (shared traces) and sharding (distinct shard keys).
_CANON_CPUS = ("A", "C")
_CANON_WORKLOADS = ("557.xz", "541.leela", "nginx", "vlc")
_CANON_STRATEGIES = ("fV", "e")


@dataclass
class ChannelReport:
    """Outcome of one execution channel against the reference.

    Attributes:
        channel: channel name ("sweep", "batch", "engine", "service").
        checked: requests (or report pairs) compared.
        ok: answers strictly equal to the reference.
        degraded: explicit failures — tolerated under chaos.
        wrong: silent corruption — ``ok`` answers that differ.  Any
            non-zero value is an oracle failure.
        mismatches: details of each wrong answer (bounded).
    """

    channel: str
    checked: int = 0
    ok: int = 0
    degraded: int = 0
    wrong: int = 0
    mismatches: List[dict] = field(default_factory=list)

    _MISMATCH_CAP = 16

    def record(self, request: Optional[SimRequest], expected: object,
               actual: object, status: str = STATUS_OK) -> None:
        """Compare one answer and file it in the right bucket."""
        self.checked += 1
        if status != STATUS_OK:
            self.degraded += 1
            return
        if actual == expected:
            self.ok += 1
            return
        self.wrong += 1
        if len(self.mismatches) < self._MISMATCH_CAP:
            self.mismatches.append({
                "request": request.to_dict() if request is not None else None,
                "expected_keys": sorted(expected)
                if isinstance(expected, dict) else str(type(expected)),
                "actual": _shrink(actual),
            })

    def to_json_dict(self) -> dict:
        """JSON form for the chaos report."""
        return {"channel": self.channel, "checked": self.checked,
                "ok": self.ok, "degraded": self.degraded,
                "wrong": self.wrong, "mismatches": self.mismatches}


def _shrink(value: object, limit: int = 512) -> object:
    """Bound a mismatch detail so reports stay readable."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


@dataclass
class OracleReport:
    """Aggregate of every channel the oracle ran."""

    channels: List[ChannelReport] = field(default_factory=list)

    @property
    def wrong_total(self) -> int:
        """Silent-corruption count across all channels."""
        return sum(c.wrong for c in self.channels)

    @property
    def passed(self) -> bool:
        """True when no channel produced a wrong answer."""
        return self.wrong_total == 0

    def to_json_dict(self) -> dict:
        """JSON form for the chaos report."""
        return {"passed": self.passed, "wrong_total": self.wrong_total,
                "channels": [c.to_json_dict() for c in self.channels]}


@contextmanager
def _chaos_suspended() -> Iterator[None]:
    """Hold chaos off while computing reference answers."""
    controller = chaos.get_controller()
    exported = os.environ.pop(chaos.ENV_PLAN, None)
    chaos.install_controller(None)
    try:
        yield
    finally:
        chaos.install_controller(controller)
        if exported is not None:
            os.environ[chaos.ENV_PLAN] = exported


class DifferentialOracle:
    """Replays one canonical request set through every channel.

    Args:
        requests: the canonical set; every request must be a plain
            simulation (no ``__crash__``/``__sleep__`` hooks) so a
            reference answer exists.
    """

    def __init__(self, requests: Sequence[SimRequest]) -> None:
        """See class docstring."""
        self.requests: List[SimRequest] = []
        for request in requests:
            request.validate()
            if request.workload.startswith("__"):
                raise ValueError(
                    f"hook workload {request.workload!r} has no reference")
            self.requests.append(request)
        if not self.requests:
            raise ValueError("the oracle needs at least one request")
        self._reference: Optional[List[dict]] = None

    @staticmethod
    def canonical_requests(n: int = 8, seed: int = 0) -> List[SimRequest]:
        """A deterministic canonical set of *n* requests.

        Cycles CPU models, workloads, strategies and seeds so the set
        exercises trace-sharing groups *and* distinct shards; a given
        ``(n, seed)`` always produces the same set.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        requests = []
        for i in range(n):
            requests.append(SimRequest(
                cpu=_CANON_CPUS[i % len(_CANON_CPUS)],
                workload=_CANON_WORKLOADS[(i // 2) % len(_CANON_WORKLOADS)],
                strategy=_CANON_STRATEGIES[(i // 4) % len(_CANON_STRATEGIES)],
                seed=seed + i % 3,
            ))
        return requests

    # -- channels -------------------------------------------------------

    def reference(self) -> List[dict]:
        """Reference payloads: a width-1 ``evaluate`` per request
        (chaos-free)."""
        if self._reference is None:
            with _chaos_suspended():
                self._reference = [jsonify(evaluate([request.point])[0])
                                   for request in self.requests]
        return self._reference

    def check_sweep(self) -> ChannelReport:
        """One ``evaluate`` over the whole set vs the reference: the
        grouping :func:`repro.service.workers.execute_batch` uses, with
        requests sharing a trace and a deadline in one sweep."""
        expected = self.reference()
        report = ChannelReport("sweep")
        with _chaos_suspended():
            results = evaluate([request.point for request in self.requests])
        for request, want, result in zip(self.requests, expected, results):
            report.record(request, want, jsonify(result))
        return report

    def check_batch(self) -> ChannelReport:
        """``execute_batch`` — the worker-process code path — vs the
        reference.  Runs in-process, so an active chaos controller's
        worker-side faults fire here too."""
        from repro.service.workers import execute_batch

        expected = self.reference()
        report = ChannelReport("batch")
        outcomes = execute_batch(
            [request.to_dict() for request in self.requests])
        for request, want, outcome in zip(self.requests, expected, outcomes):
            report.record(request, want, outcome.get("payload"),
                          status=STATUS_OK if outcome.get("status") == "ok"
                          else "failed")
        return report

    def check_engine(self, modules: Sequence[str] = ("table3_temperature",),
                     seed: int = 0) -> ChannelReport:
        """Two independent engine runs must report byte-identical
        canonical results (no cache, so both actually compute)."""
        from repro.runtime.engine import ExperimentEngine

        report = ChannelReport("engine")
        with _chaos_suspended():
            first = ExperimentEngine(modules=list(modules), jobs=1,
                                     cache=None).run(seed=seed, fast=True)
        second = ExperimentEngine(modules=list(modules), jobs=1,
                                  cache=None).run(seed=seed, fast=True)
        report.record(None, first.canonical_json(), second.canonical_json())
        return report

    async def check_service(self, service) -> ChannelReport:
        """A live :class:`SimulationService` vs the reference.

        The service is typically running under chaos: explicit
        failures count as degraded, ``ok`` payloads must be strictly
        equal to the reference.  Requests are submitted
        concurrently — chaos should meet a loaded service, and one
        stalled request must not serialise the whole pass.
        """
        import asyncio

        expected = self.reference()
        report = ChannelReport("service")
        responses = await asyncio.gather(
            *(service.submit(request) for request in self.requests))
        for request, want, response in zip(self.requests, expected,
                                           responses):
            report.record(request, want, response.payload,
                          status=response.status)
        return report

    def run_local(self, engine: bool = True) -> OracleReport:
        """The synchronous channels (sweep, batch, optionally engine)."""
        channels = [self.check_sweep(), self.check_batch()]
        if engine:
            channels.append(self.check_engine())
        return OracleReport(channels=channels)

