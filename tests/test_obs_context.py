"""Trace-context propagation and the span-tree assertions
(``repro.obs.context``)."""

from __future__ import annotations

import pytest

from repro.obs.context import (
    TraceContext,
    assert_span_containment,
    new_span_id,
    new_trace_id,
    orphan_spans,
    span_index,
    span_tree,
    trace_ids_in,
)
from repro.obs.tracer import PHASE_COMPLETE, TRACK_WALL


class TestTraceContext:
    def test_id_formats(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        int(new_trace_id(), 16)  # hex

    def test_root_has_no_parent(self):
        ctx = TraceContext.root()
        assert ctx.parent_span is None
        assert ctx.trace_id and ctx.span_id

    def test_from_request_continues_the_trace(self):
        ctx = TraceContext.from_request("aa" * 8, "bb" * 4)
        assert ctx.trace_id == "aa" * 8
        assert ctx.parent_span == "bb" * 4
        assert ctx.span_id != "bb" * 4  # always a fresh span

    def test_from_request_mints_when_untraced(self):
        ctx = TraceContext.from_request(None, None)
        assert len(ctx.trace_id) == 16
        assert ctx.parent_span is None

    def test_child_parents_on_this_span(self):
        parent = TraceContext.root()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_span == parent.span_id
        assert child.span_id != parent.span_id

    def test_args_payload(self):
        ctx = TraceContext(trace_id="t" * 16, span_id="s" * 8,
                           parent_span="p" * 8)
        args = ctx.args(proc="node-0", status="ok")
        assert args == {"trace_id": "t" * 16, "span_id": "s" * 8,
                        "parent_span": "p" * 8, "proc": "node-0",
                        "status": "ok"}
        # The root form omits parent_span entirely.
        assert "parent_span" not in TraceContext.root().args()


def wall_event(name, ts_s, dur_s, trace_id, span_id, parent=None,
               proc=None, ph=PHASE_COMPLETE, pid=TRACK_WALL):
    args = {"trace_id": trace_id, "span_id": span_id}
    if parent is not None:
        args["parent_span"] = parent
    if proc is not None:
        args["proc"] = proc
    event = {"name": name, "ph": ph, "ts": ts_s * 1e6, "pid": pid,
             "tid": 0, "cat": "test", "args": args}
    if ph == PHASE_COMPLETE:
        event["dur"] = dur_s * 1e6
    return event


TRACE = "f" * 16


class TestSpanAssertions:
    def test_trace_ids_in(self):
        events = [wall_event("a", 0, 0.1, "t1" * 8, "s1s1s1s1"),
                  wall_event("b", 0, 0.1, "t2" * 8, "s2s2s2s2")]
        assert trace_ids_in(events) == sorted(["t1" * 8, "t2" * 8])

    def test_span_index_skips_instants(self):
        events = [wall_event("span", 0, 0.1, TRACE, "aaaa0000"),
                  wall_event("marker", 0, 0, TRACE, "bbbb0000", ph="i")]
        assert set(span_index(events, TRACE)) == {"aaaa0000"}

    def test_tree_roots_children_orphans(self):
        events = [
            wall_event("root", 0.0, 1.0, TRACE, "aaaa0000"),
            wall_event("kid", 0.1, 0.5, TRACE, "bbbb0000",
                       parent="aaaa0000"),
            wall_event("lost", 0.2, 0.1, TRACE, "cccc0000",
                       parent="ffff9999"),
        ]
        tree = span_tree(events, TRACE)
        assert [e["name"] for e in tree["roots"]] == ["root"]
        assert [e["name"] for e in tree["children"]["aaaa0000"]] == ["kid"]
        assert [e["name"] for e in orphan_spans(events, TRACE)] == ["lost"]

    def test_other_traces_do_not_orphan(self):
        # A parent that lives in a different trace is a broken link;
        # one absent entirely from the event set likewise.  But spans
        # of *other* traces must not leak into this trace's tree.
        events = [wall_event("root", 0.0, 1.0, "a" * 16, "aaaa0000"),
                  wall_event("kid", 0.1, 0.5, "b" * 16, "bbbb0000",
                             parent="aaaa0000")]
        assert orphan_spans(events, "b" * 16)[0]["name"] == "kid"
        assert span_tree(events, "a" * 16)["children"] == {}

    def test_containment_checks_every_child(self):
        events = [wall_event("root", 0.5, 1.0, TRACE, "aaaa0000"),
                  wall_event("kid", 0.6, 0.5, TRACE, "bbbb0000",
                             parent="aaaa0000")]
        assert assert_span_containment(events, TRACE) == 1
        # A child starting before its parent escapes it.
        events[1]["ts"] = 0.2e6
        with pytest.raises(AssertionError):
            assert_span_containment(events, TRACE)

    def test_containment_slack_is_honoured(self):
        # The child ends 0.03s past its parent: within the default
        # 50ms slack, outside a tightened one.
        events = [wall_event("root", 0.5, 1.0, TRACE, "aaaa0000"),
                  wall_event("kid", 0.6, 0.93, TRACE, "bbbb0000",
                             parent="aaaa0000")]
        assert assert_span_containment(events, TRACE) == 1
        with pytest.raises(AssertionError):
            assert_span_containment(events, TRACE, slack_us=1_000.0)
