"""The service request/response model.

A :class:`SimRequest` names one what-if simulation — the wire form of
an :class:`~repro.core.suit.OperatingPoint` (:attr:`SimRequest.point`)
— plus scheduling hints (priority, deadline).  Its *canonical identity*
deliberately excludes the scheduling hints: two clients asking the same
question at different priorities still share one simulation (in-flight
dedup) and one cache entry.

A :class:`SimResponse` carries the outcome: the serialized
:class:`~repro.core.metrics.SimResult` payload on success, or a
status/error pair (``failed`` / ``rejected`` / ``timeout``) with enough
context (``retry_after_s``, ``retries``) for the client to react.

Both sides serialize to plain JSON dicts (:meth:`SimRequest.to_dict`,
:meth:`SimResponse.to_dict`) — the wire format of the JSON-lines TCP
protocol and the payload format of the result cache.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

from repro.core.suit import OperatingPoint

#: Scheduling priorities (lower sorts first).  Interactive requests
#: bypass the micro-batcher's accumulation window entirely.
PRIORITY_INTERACTIVE = 0
PRIORITY_NORMAL = 5
PRIORITY_BULK = 10

#: Cache-key domain tag; bump when the canonical request layout changes.
REQUEST_SCHEMA_VERSION = 1

#: Response statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"


class InvalidRequestError(ValueError):
    """Raised when a :class:`SimRequest` fails static validation."""


@dataclass(frozen=True)
class SimRequest:
    """One simulation query: what to run, and how urgently.

    Attributes:
        cpu: CPU short name ("A", "B", "C", "i5").
        workload: workload name or unambiguous fragment ("557.xz",
            "nginx"); resolved by :func:`repro.workloads.resolve_profile`
            in the worker.
        strategy: operating strategy ("fV", "f", "V", "e").
        voltage_offset: efficient-curve offset in volts (< 0).
        seed: RNG seed for trace synthesis and sampled delays.
        n_cores: active cores sharing the workload.
        deadline_us: SUIT deadline parameter ``p_dl`` in microseconds;
            ``None`` uses the vendor's Table 7 default.  Part of the
            canonical identity when set (a different deadline is a
            different simulation) but omitted when ``None`` so legacy
            requests keep their exact cache keys and wire frames.
        imul_extra_cycles: extra IMUL pipeline cycles over the
            unhardened 3-cycle baseline; ``None`` means the paper's
            +1-cycle hardening, ``0`` disables hardening.
            Identity-bearing when set, omitted when ``None`` (same
            compatibility rule as ``deadline_us``).  Ignored by the
            ``e`` strategy, whose closed-form estimate always carries
            the paper's +1-cycle hardening.
        priority: scheduling priority; lower runs first
            (:data:`PRIORITY_INTERACTIVE` preempts :data:`PRIORITY_BULK`).
        deadline_s: soft deadline in seconds; orders requests within a
            priority band and bounds how long the submitter waits
            (``None`` falls back to the service default timeout).
        trace_id: distributed-trace identity (see
            :mod:`repro.obs.context`); minted by the first traced tier
            when absent, forwarded verbatim through every hop.
        parent_span: the span id of the tier that dispatched this
            request — what the receiving tier's span parents on.
    """

    cpu: str
    workload: str
    strategy: str = "fV"
    voltage_offset: float = -0.097
    seed: int = 0
    n_cores: int = 1
    priority: int = PRIORITY_NORMAL
    deadline_s: Optional[float] = None
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None
    deadline_us: Optional[float] = None
    imul_extra_cycles: Optional[int] = None

    @property
    def point(self) -> OperatingPoint:
        """The operating point this request asks about.  An unset
        ``imul_extra_cycles`` is the paper's depth, 1."""
        return OperatingPoint(
            cpu=self.cpu, workload=self.workload, strategy=self.strategy,
            voltage_offset=self.voltage_offset, seed=self.seed,
            n_cores=self.n_cores, deadline_us=self.deadline_us,
            imul_extra_cycles=(1 if self.imul_extra_cycles is None
                               else self.imul_extra_cycles))

    def validate(self) -> None:
        """Check every field; raises :class:`InvalidRequestError`.

        The point is checked by
        :meth:`~repro.core.suit.OperatingPoint.validate`, the
        simulator's own rules, so an offset, core count or CPU the
        simulator would reject never reaches a worker.
        """
        try:
            self.point.validate()
        except ValueError as exc:
            raise InvalidRequestError(str(exc)) from None
        if not isinstance(self.priority, int):
            raise InvalidRequestError("priority must be an integer")
        if self.deadline_s is not None and (
                not isinstance(self.deadline_s, (int, float))
                or not math.isfinite(self.deadline_s)
                or self.deadline_s <= 0):
            raise InvalidRequestError(
                "deadline_s must be positive and finite when set")
        for name in ("trace_id", "parent_span"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, str)
                                      or not value):
                raise InvalidRequestError(
                    f"{name} must be a non-empty string when set")

    @property
    def shard_key(self) -> str:
        """Batching-compatibility key: requests sharing it may share a batch.

        Same CPU and strategy batch together (different workloads,
        offsets and seeds are fine); keying worker shards on the CPU
        model keeps per-CPU trace caches hot in the worker processes.
        """
        return f"{self.cpu}/{self.strategy}"

    def canonical_dict(self) -> dict:
        """The identity-defining fields, as a plain dict.

        Excludes ``priority`` / ``deadline_s`` (scheduling hints) and
        ``trace_id`` / ``parent_span`` (observability identity): none
        of them change the answer, so they must not split the
        dedup/cache identity.  ``deadline_us`` and ``imul_extra_cycles``
        *do* change the answer, so they join the identity — but only
        when set, keeping every pre-existing request's key (and wire
        frame) byte-identical.
        """
        entry = {
            "cpu": self.cpu,
            "workload": self.workload,
            "strategy": self.strategy,
            "voltage_offset": float(self.voltage_offset),
            "seed": int(self.seed),
            "n_cores": int(self.n_cores),
        }
        if self.deadline_us is not None:
            entry["deadline_us"] = float(self.deadline_us)
        if self.imul_extra_cycles is not None:
            entry["imul_extra_cycles"] = int(self.imul_extra_cycles)
        return entry

    def canonical_key(self) -> str:
        """SHA-256 content address of the canonical identity (64 hex chars)."""
        material = {"schema": REQUEST_SCHEMA_VERSION,
                    "request": self.canonical_dict()}
        canonical = json.dumps(material, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """Full wire form: scheduling hints included, trace context
        included only when set (an untraced request's frame is
        byte-identical to the pre-tracing protocol)."""
        entry = self.canonical_dict()
        entry["priority"] = int(self.priority)
        entry["deadline_s"] = (None if self.deadline_s is None
                               else float(self.deadline_s))
        if self.trace_id is not None:
            entry["trace_id"] = self.trace_id
        if self.parent_span is not None:
            entry["parent_span"] = self.parent_span
        return entry

    @classmethod
    def from_dict(cls, payload: dict) -> "SimRequest":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        if not isinstance(payload, dict):
            raise InvalidRequestError("request payload must be an object")
        known = {"cpu", "workload", "strategy", "voltage_offset", "seed",
                 "n_cores", "priority", "deadline_s", "trace_id",
                 "parent_span", "deadline_us", "imul_extra_cycles"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidRequestError(
                f"unknown request field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise InvalidRequestError(str(exc)) from exc


@dataclass
class SimResponse:
    """The service's answer to one :class:`SimRequest`.

    Attributes:
        request: the request this answers (echoed back verbatim).
        status: "ok", "failed", "rejected" or "timeout".
        payload: the jsonified :class:`~repro.core.metrics.SimResult`
            (None unless ok).
        error: human-readable failure reason (None when ok).
        source: where the answer came from: "computed", "cache" or
            "dedup" (folded onto another in-flight request).
        latency_s: submit-to-response wall time observed by the service.
        retries: worker-crash retries spent computing this answer.
        retry_after_s: when rejected for backpressure, the suggested
            client back-off before resubmitting.
    """

    request: SimRequest
    status: str
    payload: Optional[dict] = None
    error: Optional[str] = None
    source: str = "computed"
    latency_s: float = 0.0
    retries: int = 0
    retry_after_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        """True when the simulation completed and ``payload`` is usable."""
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        """Wire form (JSON-lines TCP protocol)."""
        return {
            "request": self.request.to_dict(),
            "status": self.status,
            "payload": self.payload,
            "error": self.error,
            "source": self.source,
            "latency_s": self.latency_s,
            "retries": self.retries,
            "retry_after_s": self.retry_after_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimResponse":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            request=SimRequest.from_dict(payload["request"]),
            status=payload["status"],
            payload=payload.get("payload"),
            error=payload.get("error"),
            source=payload.get("source", "computed"),
            latency_s=float(payload.get("latency_s", 0.0)),
            retries=int(payload.get("retries", 0)),
            retry_after_s=payload.get("retry_after_s"),
        )
