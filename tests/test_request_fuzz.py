"""Property-based fuzzing of the request model and the frame parser.

Two attack surfaces, two suites:

* :class:`SimRequest` canonicalization/validation — hypothesis-generated
  valid requests must round-trip through the wire form, keep a stable
  canonical key that ignores scheduling hints, and every single-field
  corruption must be rejected by exactly the validation layer.
* The JSON-lines connection handler — arbitrary garbage, partial
  frames, valid-JSON-non-object frames and fuzzed ``submit`` bodies
  must each produce an explicit protocol reply (or a clean skip), never
  an unhandled exception, and must leave the connection usable for the
  next frame.
"""

import asyncio
import json
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.suit import KNOWN_STRATEGIES, VOLTAGE_STRATEGIES
from repro.hardware.models import ALL_CPU_FACTORIES
from repro.service.request import (
    STATUS_OK,
    InvalidRequestError,
    SimRequest,
    SimResponse,
)
from repro.service.server import _handle_connection

run = asyncio.run

#: Moderate example counts: the suite rides in tier-1.
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_NAME_ALPHABET = string.ascii_letters + string.digits + "._-"

#: Core count per CPU: a valid request uses at most that many.
_CORES = {name: factory().topology.n_cores
          for name, factory in ALL_CPU_FACTORIES.items()}

#: Strategies per CPU: one without a voltage rail takes only f and e.
_STRATEGIES = {
    name: (KNOWN_STRATEGIES if factory().transitions.voltage is not None
           else tuple(s for s in KNOWN_STRATEGIES
                      if s not in VOLTAGE_STRATEGIES))
    for name, factory in ALL_CPU_FACTORIES.items()}

valid_requests = st.sampled_from(sorted(_CORES)).flatmap(
    lambda cpu: st.builds(
        SimRequest,
        cpu=st.just(cpu),
        workload=st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=16),
        strategy=st.sampled_from(_STRATEGIES[cpu]),
        voltage_offset=st.floats(min_value=-0.3, max_value=0.0,
                                 exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**31),
        n_cores=st.integers(min_value=1, max_value=_CORES[cpu]),
        priority=st.integers(min_value=-10, max_value=20),
        deadline_s=st.one_of(st.none(),
                             st.floats(min_value=1e-3, max_value=1e3)),
    ))


class TestRequestProperties:
    @given(valid_requests)
    @FUZZ
    def test_valid_requests_validate(self, request):
        request.validate()

    @given(valid_requests)
    @FUZZ
    def test_wire_round_trip_is_identity(self, request):
        clone = SimRequest.from_dict(request.to_dict())
        assert clone == request
        # ... and survives an actual JSON hop.
        rewired = SimRequest.from_dict(
            json.loads(json.dumps(request.to_dict())))
        assert rewired == request

    @given(valid_requests)
    @FUZZ
    def test_canonical_key_is_stable_and_hex(self, request):
        key = request.canonical_key()
        assert len(key) == 64
        int(key, 16)  # pure hex
        assert SimRequest.from_dict(request.to_dict()).canonical_key() == key

    @given(valid_requests, st.integers(-10, 20),
           st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3)))
    @FUZZ
    def test_scheduling_hints_do_not_split_identity(self, request,
                                                    priority, deadline_s):
        twin = SimRequest(cpu=request.cpu, workload=request.workload,
                          strategy=request.strategy,
                          voltage_offset=request.voltage_offset,
                          seed=request.seed, n_cores=request.n_cores,
                          priority=priority, deadline_s=deadline_s)
        assert twin.canonical_key() == request.canonical_key()
        assert "priority" not in request.canonical_dict()
        assert "deadline_s" not in request.canonical_dict()

    @given(valid_requests,
           st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=12))
    @FUZZ
    def test_unknown_fields_rejected(self, request, name):
        payload = request.to_dict()
        if name in payload:
            name = name + "_x"
        payload[name] = 1
        with pytest.raises(InvalidRequestError):
            SimRequest.from_dict(payload)

    @given(valid_requests, st.sampled_from([
        ("cpu", ""), ("cpu", 7), ("workload", ""), ("workload", None),
        ("strategy", "fVe"), ("strategy", ""), ("voltage_offset", 0.05),
        ("voltage_offset", "deep"), ("seed", -1), ("seed", 1.5),
        ("n_cores", 0), ("n_cores", -2), ("priority", "high"),
        ("deadline_s", 0.0), ("deadline_s", -1.0),
        ("voltage_offset", 0.0), ("voltage_offset", float("nan")),
        ("voltage_offset", float("-inf")), ("cpu", "Z"), ("n_cores", 9),
        ("deadline_s", float("nan")), ("deadline_s", float("inf")),
    ]))
    @FUZZ
    def test_single_field_corruption_rejected(self, request, corruption):
        field, bad = corruption
        payload = request.to_dict()
        payload[field] = bad
        with pytest.raises(InvalidRequestError):
            SimRequest.from_dict(payload).validate()

    @given(st.one_of(st.none(), st.integers(), st.text(),
                     st.lists(st.integers())))
    @FUZZ
    def test_non_dict_payload_rejected(self, payload):
        with pytest.raises(InvalidRequestError):
            SimRequest.from_dict(payload)


# -- frame-parser fuzzing ------------------------------------------------


class _StubService:
    """submit() answers instantly; lets the parser run without workers."""

    class _Metrics:
        def prometheus_text(self):
            return "# stub\n"

        def snapshot(self):
            return {"stub": True}

    def __init__(self):
        self.metrics = self._Metrics()
        self.submitted = []

    async def submit(self, request):
        self.submitted.append(request)
        return SimResponse(request=request, status=STATUS_OK,
                           payload={"echo": request.canonical_key()})


class _FakeWriter:
    """Collects everything the handler writes; never raises."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        pass

    def close(self):
        pass

    def replies(self):
        return [json.loads(line)
                for line in b"".join(self.chunks).splitlines() if line]


def _serve(payload: bytes):
    """Feed *payload* (+EOF) through one connection; return the replies."""
    async def go():
        service = _StubService()
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        writer = _FakeWriter()
        await _handle_connection(service, reader, writer)
        return service, writer.replies()

    return run(go())


_PING = b'{"op": "ping", "id": "probe"}\n'


class TestFrameParserFuzz:
    @given(st.binary(min_size=0, max_size=200))
    @FUZZ
    def test_garbage_frames_never_kill_the_connection(self, garbage):
        # Strip newlines so the garbage is exactly one frame, then
        # prove the connection still answers a well-formed ping.
        frame = garbage.replace(b"\n", b"\xaa").replace(b"\r", b"\xaa")
        _, replies = _serve(frame + b"\n" + _PING)
        assert replies, "handler died without answering"
        pong = replies[-1]
        assert pong["op"] == "pong" and pong["id"] == "probe"
        for reply in replies[:-1]:
            assert reply["op"] in ("error", "response", "metrics",
                                   "trace", "pong")

    @given(st.binary(min_size=1, max_size=80))
    @FUZZ
    def test_partial_trailing_frame_is_handled(self, garbage):
        # No trailing newline: readline() returns the partial frame at
        # EOF and the parser must still answer or skip it cleanly.
        frame = garbage.replace(b"\n", b"\xaa").replace(b"\r", b"\xaa")
        _, replies = _serve(_PING + frame)
        # The ping reply comes from a concurrently scheduled task, so
        # it may land before or after the partial frame's error.
        assert any(reply["op"] == "pong" for reply in replies)
        assert all(reply["op"] in ("pong", "error") for reply in replies)

    @given(st.one_of(st.integers(), st.floats(allow_nan=False,
                                              allow_infinity=False),
                     st.text(max_size=20), st.booleans(), st.none(),
                     st.lists(st.integers(), max_size=4)))
    @FUZZ
    def test_json_non_object_frames_get_explicit_error(self, value):
        frame = json.dumps(value).encode() + b"\n"
        _, replies = _serve(frame + _PING)
        assert replies[0] == {"op": "error",
                              "error": "frame must be a JSON object"}
        assert replies[-1]["op"] == "pong"

    @given(st.dictionaries(
        st.sampled_from(["cpu", "workload", "strategy", "voltage_offset",
                         "seed", "n_cores", "bogus"]),
        st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=6),
                  st.floats(allow_nan=False, allow_infinity=False)),
        max_size=5))
    @FUZZ
    def test_fuzzed_submit_bodies_answer_or_reject(self, body):
        frame = json.dumps({"op": "submit", "id": 1,
                            "request": body}).encode() + b"\n"
        service, replies = _serve(frame)
        assert len(replies) == 1
        assert replies[0]["op"] in ("error", "response")
        if replies[0]["op"] == "response":
            # Only well-formed requests may reach the execution tier.
            assert len(service.submitted) == 1

    def test_bad_json_reply_is_the_documented_literal(self):
        _, replies = _serve(b"{not json\n")
        assert replies[0] == {"op": "error", "error": "bad json"}

    def test_blank_lines_are_skipped(self):
        _, replies = _serve(b"\n   \n" + _PING)
        assert len(replies) == 1
        assert replies[0]["op"] == "pong"

    def test_unknown_op_is_reported(self):
        _, replies = _serve(b'{"op": "reboot"}\n')
        assert replies[0]["op"] == "error"
        assert "unknown op" in replies[0]["error"]
