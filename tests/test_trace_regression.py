"""Recorded-output regression for trace synthesis, compared with ``==``.

Every result of the reproduction replays a synthesised trace, so the
draw order and the float expressions of :mod:`repro.workloads` synthesis
are a contract: a moved RNG call or a reordered expression changes every
trace, and with it every golden.  This suite pins that contract.  It
compares a digest of each trace with the digest recorded in
``tests/data/trace_regression.json``.  A digest is a sha256 over the
trace's indices, opcodes and gaps bytes, its ``opcode_table`` and its
``n_instructions``.

The groups are:

* ``profiles``: every SPEC and network profile at seeds 0 and 1;
* ``redraw``: small profiles whose short, dense episodes take the redraw
  loop of :func:`~repro.workloads.gaps.burst_positions` (a test below
  shows that they do);
* ``single_burst``: :func:`~repro.workloads.generator.single_burst_trace`;
* ``merged``: :func:`~repro.core.multicore.merged_multicore_trace` at 2,
  3 and 4 cores, with the default stagger and with 0.3, on 502.gcc and
  on a synthetic trace with duplicate indices and events at 0 and n-1.

Regenerate the recording only for a deliberate, reviewed change of the
synthesised traces, together with the goldens:

    PYTHONPATH=src python tests/test_trace_regression.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.multicore import merged_multicore_trace
from repro.isa.opcodes import Opcode
from repro.workloads.gaps import burst_positions
from repro.workloads.generator import (
    _draw_codes,
    generate_trace,
    single_burst_trace,
)
from repro.workloads.network import network_profiles
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec import all_spec_profiles, spec_profile
from repro.workloads.trace import FaultableTrace

DATA_PATH = Path(__file__).resolve().parent / "data" / "trace_regression.json"

_SEEDS = (0, 1)

#: Profiles whose episodes redraw: a mean gap near 1 instruction makes
#: ``max(gap, 1)`` lengthen the gaps, and very short episodes make the
#: event count noisy, so the first draw often covers too few events.
_REDRAW_PROFILES = (
    WorkloadProfile(
        name="redraw-unit-gap", suite="SPECint", n_instructions=2_000_000,
        ipc=1.0, efficient_occupancy=0.5, n_episodes=6, dense_gap=1.0,
        sparse_events=5, opcode_mix={Opcode.VOR: 1.0}),
    WorkloadProfile(
        name="redraw-gap2", suite="SPECfp", n_instructions=3_000_000,
        ipc=1.2, efficient_occupancy=0.4, n_episodes=12, dense_gap=2.0,
        sparse_events=0,
        opcode_mix={Opcode.VOR: 0.5, Opcode.VPCMP: 0.0,
                    Opcode.AESENC: 0.5}),
    WorkloadProfile(
        name="redraw-short", suite="network", n_instructions=1_000_000,
        ipc=2.0, efficient_occupancy=0.9, n_episodes=40, dense_gap=9.0,
        sparse_events=3,
        opcode_mix={Opcode.AESENC: 3, Opcode.VPCLMULQDQ: 1, Opcode.VXOR: 1,
                    Opcode.VOR: 2}),
)

_SINGLE_BURSTS = {
    "aes": dict(n_instructions=10_000_000, ipc=1.5, burst_start=1_000_000,
                burst_length=2_000_000, dense_gap=300.0),
    "unit-gap": dict(n_instructions=50_000, ipc=1.0, burst_start=0,
                     burst_length=50_000, dense_gap=1.0, seed=3),
    "clmul": dict(n_instructions=4_000_000, ipc=2.0, burst_start=3_000_000,
                  burst_length=999_000, dense_gap=45.0,
                  opcode=Opcode.VPCLMULQDQ, seed=7),
}


def _edge_trace() -> FaultableTrace:
    """Duplicate indices, and events at both ends of the run."""
    rng = np.random.default_rng(17)
    n = 1_000_003
    body = rng.integers(0, n, size=5_000)
    indices = np.sort(np.concatenate(
        [body, body[:400], [0, 0, n - 1, n - 1, n // 2, n // 2]]))
    opcodes = rng.integers(0, 3, size=indices.size).astype(np.uint8)
    return FaultableTrace(
        name="edges", n_instructions=n, ipc=1.3, indices=indices,
        opcodes=opcodes,
        opcode_table=(Opcode.VOR, Opcode.AESENC, Opcode.VPCMP))


def _trace_digest(trace: FaultableTrace) -> str:
    digest = hashlib.sha256(json.dumps(
        {"n_instructions": trace.n_instructions,
         "n_events": trace.n_events,
         "opcode_table": [op.name for op in trace.opcode_table]},
        sort_keys=True).encode())
    for arr in (trace.indices, trace.opcodes, trace.gaps()):
        digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()[:16]


def _profile_cases() -> Iterator[Tuple[str, str]]:
    for profile in all_spec_profiles() + network_profiles():
        for seed in _SEEDS:
            yield (f"profiles/{profile.name}/s{seed}",
                   _trace_digest(generate_trace(profile, seed=seed)))


def _redraw_cases() -> Iterator[Tuple[str, str]]:
    for profile in _REDRAW_PROFILES:
        for seed in _SEEDS:
            trace = generate_trace(profile, rng=np.random.default_rng(seed))
            yield f"redraw/{profile.name}/s{seed}", _trace_digest(trace)


def _single_burst_cases() -> Iterator[Tuple[str, str]]:
    for name, kwargs in _SINGLE_BURSTS.items():
        yield (f"single_burst/{name}",
               _trace_digest(single_burst_trace(name, **kwargs)))


def _merged_cases() -> Iterator[Tuple[str, str]]:
    for name, trace in (("502.gcc",
                         generate_trace(spec_profile("502.gcc"), seed=0)),
                        ("edges", _edge_trace())):
        for n_cores in (2, 3, 4):
            for stagger in (None, 0.3):
                merged = merged_multicore_trace(trace, n_cores, stagger)
                yield (f"merged/{name}/cores{n_cores}/stagger{stagger}",
                       _trace_digest(merged))


_GROUPS = {
    "profiles": _profile_cases,
    "redraw": _redraw_cases,
    "single_burst": _single_burst_cases,
    "merged": _merged_cases,
}


def record_all() -> Dict[str, str]:
    """Every case of every group, keyed by a readable case name."""
    record: Dict[str, str] = {}
    for cases in _GROUPS.values():
        record.update(cases())
    return record


@pytest.fixture(scope="module")
def recorded() -> Dict[str, str]:
    return json.loads(DATA_PATH.read_text())


@pytest.mark.parametrize("group", list(_GROUPS))
def test_recorded_traces_are_reproduced(group, recorded):
    got = dict(_GROUPS[group]())
    want = {key: value for key, value in recorded.items()
            if key.split("/", 1)[0] == group}
    assert want, f"no recorded cases for group {group!r}"
    drift = sorted(key for key in want.keys() | got.keys()
                   if got.get(key) != want.get(key))
    assert not drift, f"{len(drift)} of {len(want)} cases drifted: " \
        f"{drift[:10]}"


class _CountingRng:
    """Forwards to a generator and counts its ``exponential`` calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.exponential_calls = 0

    def exponential(self, *args, **kwargs):
        self.exponential_calls += 1
        return self._rng.exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_redraw_profiles_take_the_redraw_loop():
    """Each episode draws its gaps once, plus once per redraw, so more
    ``exponential`` calls than episodes means the loop ran."""
    redraws = {}
    for profile in _REDRAW_PROFILES:
        rng = _CountingRng(np.random.default_rng(0))
        trace = generate_trace(profile, rng=rng)
        assert _trace_digest(trace) == _trace_digest(
            generate_trace(profile, rng=np.random.default_rng(0)))
        redraws[profile.name] = rng.exponential_calls - profile.n_episodes
    assert any(count > 0 for count in redraws.values()), redraws


def _reference_burst_positions(rng, start, length, mean_gap):
    """``burst_positions`` as first written (mask trim, copies), kept to
    prove the in-place version draws and computes the same."""
    if length <= 0:
        return np.empty(0, dtype=np.int64)
    if mean_gap < 1:
        raise ValueError("mean gap must be at least 1 instruction")
    expected = int(length / mean_gap)
    # Oversample, cumulate, trim: cheaper than a Python loop.
    n_draw = max(8, int(expected * 1.25) + 8)
    gaps = np.maximum(rng.exponential(mean_gap, size=n_draw), 1.0)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < length]
    while offsets.size and offsets.size < expected * 0.9:
        extra = np.maximum(rng.exponential(mean_gap, size=n_draw), 1.0)
        more = offsets[-1] + np.cumsum(extra)
        offsets = np.concatenate([offsets, more[more < length]])
        if more[-1] >= length:
            break
    return (start + offsets).astype(np.int64)


@st.composite
def _weights(draw):
    """1 to 8 opcode weights, zeros allowed, at least one positive."""
    positive = st.floats(1e-3, 100.0)
    weights = draw(st.lists(st.one_of(st.just(0.0), positive), max_size=7))
    weights.insert(draw(st.integers(0, len(weights))), draw(positive))
    return weights


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), weights=_weights(),
       size=st.one_of(st.integers(0, 64), st.integers(0, 100_000)))
@example(seed=0, weights=[0.0, 1.0, 0.0], size=1000)
def test_code_draw_matches_generator_choice(seed, weights, size):
    total = sum(weights)
    p = [w / total for w in weights]
    want_rng = np.random.default_rng(seed)
    want = want_rng.choice(len(p), size=size, p=p).astype(np.uint8)
    got_rng = np.random.default_rng(seed)
    got = _draw_codes(got_rng, p, size)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), start=st.integers(0, 10 ** 9),
       length=st.integers(-5, 200_000),
       mean_gap=st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 5_000.0)))
@example(seed=0, start=5, length=1_000, mean_gap=1.0)
@example(seed=1, start=0, length=20, mean_gap=9.0)
def test_burst_positions_match_the_reference(seed, start, length, mean_gap):
    want_rng = np.random.default_rng(seed)
    want = _reference_burst_positions(want_rng, start, length, mean_gap)
    got_rng = np.random.default_rng(seed)
    got = burst_positions(got_rng, start, length, mean_gap)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_trace_regression.py"
                 " --update")
    DATA_PATH.parent.mkdir(exist_ok=True)
    cases = record_all()
    DATA_PATH.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {DATA_PATH}")
