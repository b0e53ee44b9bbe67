"""Distributed trace context: one request, one stitched span tree.

A request that crosses the service's tiers (client → service →
worker) is stitched back together by two pieces of shared identity
carried in the JSON-lines protocol frames and the worker batches:

* ``trace_id`` — one id per logical request, minted where the request
  first enters a traced tier (normally the service) and forwarded
  verbatim through every hop and retry.
* ``parent_span`` — the span id of the *caller's* span, so each tier's
  span nests under the hop that dispatched it.

Every traced tier records its span as an ordinary
:class:`~repro.obs.tracer.TraceEvent` whose ``args`` carry
``{trace_id, span_id, parent_span, proc}`` (:meth:`TraceContext.args`);
no new event type is needed, and the Chrome/Perfetto export keeps
working unchanged.

:func:`span_index` / :func:`span_tree` / :func:`orphan_spans` are the
assertion helpers the tests and the smoke drive: a healthy request —
retried, deduped or not — must produce exactly one connected span tree
per trace id, with no orphans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.obs.tracer import PHASE_COMPLETE

__all__ = [
    "TraceContext",
    "assert_span_containment",
    "new_span_id",
    "new_trace_id",
    "orphan_spans",
    "span_index",
    "span_tree",
    "trace_ids_in",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char request identity."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span identity."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """The trace identity one tier works under.

    Attributes:
        trace_id: the request's identity across every tier.
        span_id: this tier's own span id (what children parent on).
        parent_span: the caller's span id, or None at the root.
    """

    trace_id: str
    span_id: str
    parent_span: Optional[str] = None

    @classmethod
    def root(cls) -> "TraceContext":
        """A brand-new trace (no caller)."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    @classmethod
    def from_request(cls, trace_id: Optional[str],
                     parent_span: Optional[str]) -> "TraceContext":
        """Continue the trace a request carries (or start one).

        The incoming ``parent_span`` becomes this tier's parent; the
        tier always gets its own fresh ``span_id``.
        """
        return cls(trace_id=trace_id or new_trace_id(),
                   span_id=new_span_id(), parent_span=parent_span)

    def child(self) -> "TraceContext":
        """The context a tier hands to whatever it dispatches."""
        return TraceContext(trace_id=self.trace_id, span_id=new_span_id(),
                            parent_span=self.span_id)

    def args(self, proc: Optional[str] = None, **extra) -> dict:
        """Event ``args`` carrying this context (plus *extra* fields).

        ``proc`` names the logical process/tier ("service-<pid>",
        "worker:..."), the lane a span is drawn on.
        """
        payload: Dict[str, object] = {"trace_id": self.trace_id,
                                      "span_id": self.span_id}
        if self.parent_span is not None:
            payload["parent_span"] = self.parent_span
        if proc is not None:
            payload["proc"] = proc
        payload.update(extra)
        return payload


# -- span-tree assertions ------------------------------------------------


def _event_args(event: dict) -> dict:
    args = event.get("args")
    return args if isinstance(args, dict) else {}


def trace_ids_in(events: Iterable[dict]) -> List[str]:
    """Every distinct ``trace_id`` carried by *events* (sorted)."""
    ids = {_event_args(event).get("trace_id") for event in events}
    return sorted(i for i in ids if isinstance(i, str))


def span_index(events: Iterable[dict],
               trace_id: Optional[str] = None) -> Dict[str, dict]:
    """``{span_id: event}`` of the complete-phase spans in *events*.

    With *trace_id*, only that trace's spans are indexed.  Instants
    (batch and retry markers) carry context but are not spans;
    they are excluded here and checked separately.
    """
    index: Dict[str, dict] = {}
    for event in events:
        args = _event_args(event)
        span_id = args.get("span_id")
        if event.get("ph") != PHASE_COMPLETE or not span_id:
            continue
        if trace_id is not None and args.get("trace_id") != trace_id:
            continue
        index[str(span_id)] = event
    return index


def span_tree(events: Iterable[dict], trace_id: str) -> dict:
    """One trace's spans as ``{"roots": [...], "children":
    {span_id: [child events]}, "orphans": [...]}``.

    A span is a *root* when it carries no ``parent_span``; an *orphan*
    when its parent span id does not exist in the same trace — the
    broken-propagation signature the chaos test hunts for.
    """
    index = span_index(events, trace_id)
    roots: List[dict] = []
    orphans: List[dict] = []
    children: Dict[str, List[dict]] = {}
    for event in index.values():
        parent = _event_args(event).get("parent_span")
        if parent is None:
            roots.append(event)
        elif str(parent) in index:
            children.setdefault(str(parent), []).append(event)
        else:
            orphans.append(event)
    return {"roots": roots, "children": children, "orphans": orphans}


def orphan_spans(events: Iterable[dict], trace_id: str) -> List[dict]:
    """The spans of *trace_id* whose parent is missing (ideally none)."""
    return span_tree(events, trace_id)["orphans"]


def assert_span_containment(events: Iterable[dict], trace_id: str,
                            slack_us: float = 50_000.0) -> int:
    """Assert every child span nests inside its parent's interval.

    Each child's ``[ts, ts+dur]`` must fall within its parent's (up
    to *slack_us* of clock skew between the tiers that stamped them).
    Returns the number of parent/child pairs checked; raises
    ``AssertionError`` naming the first violating pair.
    """
    tree = span_tree(list(events), trace_id)
    index = span_index(list(events), trace_id)
    checked = 0
    for parent_id, kids in tree["children"].items():
        parent = index[parent_id]
        p_start = float(parent.get("ts", 0.0))
        p_end = p_start + float(parent.get("dur", 0.0))
        for kid in kids:
            k_start = float(kid.get("ts", 0.0))
            k_end = k_start + float(kid.get("dur", 0.0))
            if (k_start < p_start - slack_us
                    or k_end > p_end + slack_us):
                raise AssertionError(
                    f"span {kid.get('name')} [{k_start:.0f}, {k_end:.0f}]us "
                    f"escapes parent {parent.get('name')} "
                    f"[{p_start:.0f}, {p_end:.0f}]us "
                    f"(trace {trace_id}, slack {slack_us:.0f}us)")
            checked += 1
    return checked
