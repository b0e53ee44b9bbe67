"""Recorded-output regression for the trace simulator, compared with ``==``.

The goldens compare experiment metrics at a 1e-6 relative tolerance,
which cannot prove that a change to the simulator is bit-exact.  This
suite can.  It replays a fixed grid of runs and compares a digest of
each jsonified :class:`~repro.core.metrics.SimResult` with the digest
recorded in ``tests/data/sim_regression.json``.  Any moved RNG call
site, changed draw order or reordered floating-point expression shows
up as a changed digest.

The grid covers:

* CPUs A, B, C and i5, each with the strategies it supports (CPU B has
  no voltage rail, so only ``f`` applies there);
* ``fV``, ``f`` and ``V`` at three offsets and two seeds, with the
  IMUL hardening on and off, plus the ``e`` closed-form estimate;
* two cores on the shared-domain CPUs A and i5;
* the simulated ``e`` strategy, run through :class:`TraceSimulator`;
* runs with ``record_timeline=True``;
* the sim-track tracer events of traced runs;
* IMUL hardening depths 2-5 for ``fV``, ``f`` and ``V``.

It runs over two traces: a synthetic trace spanning several 4,096-event
index blocks, and a trace generated from a small workload profile.

Three more groups pin the callers of the simulator:

* ``service``: one worker batch that mixes every identity field of a
  request (deadline, IMUL depth, core count, seed), through
  ``execute_batch`` and through ``execute_request``;
* ``dse``: the simulation payloads of one ``nginx_quick`` generation;
* ``keys``: the request, service-cache, DSE job and DSE cache keys of
  those sets, so an old cache directory or ``dse.ckpt.json`` still
  hits.  The package digest in the cache keys is pinned to a constant.

Regenerate the recording only for a deliberate, reviewed change of the
simulator's output:

    PYTHONPATH=src python tests/test_sim_regression.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.params import default_params_for
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.core.suit import SuitSystem
from repro.hardware.models import ALL_CPU_FACTORIES
from repro.isa.opcodes import Opcode
from repro.obs.tracer import TRACK_SIM, disable_tracing, enable_tracing
from repro.runtime.serialization import jsonify
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

DATA_PATH = Path(__file__).resolve().parent / "data" / "sim_regression.json"

_OFFSETS = (-0.05, -0.097, -0.12)
_SEEDS = (0, 1)
_CPUS = ("A", "B", "C", "i5")
#: CPUs whose cores share one DVFS domain (multicore merges the trace).
_SHARED_DOMAIN_CPUS = ("A", "i5")

_SYNTH_PROFILE = WorkloadProfile(
    name="synth", suite="SPECint", n_instructions=200_000_000, ipc=1.5,
    efficient_occupancy=0.5, n_episodes=1, dense_gap=300,
    imul_density=0.05, opcode_mix={Opcode.VOR: 0.6, Opcode.VPCMP: 0.4})

_GEN_PROFILE = WorkloadProfile(
    name="gen", suite="SPECint", n_instructions=20_000_000, ipc=1.2,
    efficient_occupancy=0.4, n_episodes=4, dense_gap=400,
    imul_density=0.1, opcode_mix={Opcode.VOR: 0.5, Opcode.VPCMP: 0.3,
                                  Opcode.AESENC: 0.2})


def _synthetic_trace() -> FaultableTrace:
    """~30 k events over 200 M instructions.

    * Four dense bursts of 4-9 k events, which cross block boundaries.
      Each holds a few near-deadline gaps, so a bulk consume stops
      inside a burst.
    * A run of gaps just over the Intel deadline, which thrashes.
    * A run of gaps just over the AMD deadline, which thrashes CPU B.
    * Sparse singles, which let the deadline timer fire.
    """
    rng = np.random.default_rng(20240427)
    n = _SYNTH_PROFILE.n_instructions
    chunks = []
    pos = 1_000_000
    for length in (4_000, 9_000, 6_500, 8_000):
        gaps = rng.geometric(1 / 300, size=length).astype(np.int64)
        near = rng.random(length) < 0.004
        gaps[near] = rng.integers(90_000, 400_000, size=int(near.sum()))
        chunks.append(pos + np.cumsum(gaps))
        pos = int(chunks[-1][-1]) + 3_000_000
    chunks.append(pos + np.cumsum(rng.integers(140_000, 260_000, size=60)))
    pos = int(chunks[-1][-1]) + 2_000_000
    chunks.append(pos + np.cumsum(
        rng.integers(5_500_000, 9_000_000, size=12)))
    chunks.append(rng.integers(0, n, size=40))
    indices = np.unique(np.concatenate(chunks))
    indices = indices[indices < n]
    opcodes = (rng.random(indices.size) < 0.4).astype(np.uint8)
    return FaultableTrace(
        name=_SYNTH_PROFILE.name, n_instructions=n, ipc=_SYNTH_PROFILE.ipc,
        indices=indices, opcodes=opcodes,
        opcode_table=(Opcode.VOR, Opcode.VPCMP))


def _traces() -> Dict[str, Tuple[WorkloadProfile, FaultableTrace]]:
    return {"synth": (_SYNTH_PROFILE, _synthetic_trace()),
            "gen": (_GEN_PROFILE, generate_trace(_GEN_PROFILE, seed=0))}


def _digest(value: object) -> str:
    blob = json.dumps(jsonify(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _trace_digest(trace: FaultableTrace) -> str:
    return _digest({"n": trace.n_instructions, "ipc": trace.ipc,
                    "indices": hashlib.sha256(trace.indices.tobytes())
                    .hexdigest(),
                    "opcodes": hashlib.sha256(trace.opcodes.tobytes())
                    .hexdigest(),
                    "table": [op.name for op in trace.opcode_table]})


def _strategies(cpu) -> Tuple[str, ...]:
    return ("fV", "f", "V") if cpu.transitions.voltage is not None \
        else ("f",)


def _trace_cases(traces) -> Iterator[Tuple[str, str]]:
    for name, (_, trace) in traces.items():
        yield f"trace/{name}", _trace_digest(trace)


def _sweep_cases(traces) -> Iterator[Tuple[str, str]]:
    """Every CPU x applicable strategy x offset x seed x hardening, as
    one :func:`simulate_sweep` call per (trace, CPU)."""
    for tname, (profile, trace) in traces.items():
        for cname in _CPUS:
            cpu = ALL_CPU_FACTORIES[cname]()
            configs = [SweepConfig(s, off, seed, depth)
                       for s in _strategies(cpu)
                       for off in _OFFSETS
                       for seed in _SEEDS
                       for depth in (1, 0)]
            configs += [SweepConfig("e", off) for off in _OFFSETS]
            results = simulate_sweep(cpu, profile, trace, configs)
            for c, r in zip(configs, results):
                yield (f"sweep/{tname}/{cname}/{c.strategy}/"
                       f"{c.voltage_offset}/s{c.seed}/h{c.imul_extra_cycles}",
                       _digest(r))


def _multicore_cases(traces) -> Iterator[Tuple[str, str]]:
    """Two cores on a shared domain: the trace is merged once."""
    for tname, (profile, trace) in traces.items():
        for cname in _SHARED_DOMAIN_CPUS:
            cpu = ALL_CPU_FACTORIES[cname]()
            configs = [SweepConfig(s, -0.097, seed)
                       for s in ("fV", "f", "V", "e") for seed in _SEEDS]
            results = simulate_sweep(cpu, profile, trace, configs,
                                     n_cores=2)
            for c, r in zip(configs, results):
                yield (f"cores2/{tname}/{cname}/{c.strategy}/s{c.seed}",
                       _digest(r))


def _direct(cname, strategy, profile, trace, seed=0, **kwargs):
    cpu = ALL_CPU_FACTORIES[cname]()
    return TraceSimulator(
        cpu, profile, trace,
        strategy_for(strategy, default_params_for(cpu.vendor)),
        -0.097, seed=seed, **kwargs).run()


def _direct_cases(traces) -> Iterator[Tuple[str, str]]:
    """TraceSimulator built directly, including the *simulated* ``e``
    strategy (the sweep answers ``e`` with the closed-form estimate)."""
    for tname, (profile, trace) in traces.items():
        for cname in _CPUS:
            cpu = ALL_CPU_FACTORIES[cname]()
            for strategy in _strategies(cpu) + ("e",):
                for seed in _SEEDS:
                    yield (f"direct/{tname}/{cname}/{strategy}/s{seed}",
                           _digest(_direct(cname, strategy, profile, trace,
                                           seed=seed)))


def _timeline_cases(traces) -> Iterator[Tuple[str, str]]:
    for tname, (profile, trace) in traces.items():
        for cname, strategy in (("C", "fV"), ("A", "V"), ("B", "f"),
                                ("i5", "f")):
            yield (f"timeline/{tname}/{cname}/{strategy}",
                   _digest(_direct(cname, strategy, profile, trace,
                                   record_timeline=True)))
    profile, trace = traces["gen"]
    for cname, n_cores in (("C", 1), ("A", 2)):
        suit = SuitSystem.for_cpu(cname, strategy_name="fV",
                                  voltage_offset=-0.097, n_cores=n_cores)
        suit.prime_trace(profile, trace)
        yield (f"timeline/run_profile/{cname}/cores{n_cores}",
               _digest(suit.run_profile(profile, record_timeline=True)))


def _traced_cases(traces) -> Iterator[Tuple[str, str]]:
    """Sim-track events of traced runs, and their results."""
    for tname, cname, strategy in (("synth", "C", "fV"), ("gen", "B", "f"),
                                   ("gen", "C", "e")):
        profile, trace = traces[tname]
        tracer = enable_tracing(capacity=1_000_000)
        try:
            result = _direct(cname, strategy, profile, trace)
        finally:
            disable_tracing()
        assert tracer.n_dropped == 0
        events = [(e.name, e.ph, e.ts_us, e.dur_us, e.args)
                  for e in tracer.events() if e.pid == TRACK_SIM]
        key = f"traced/{tname}/{cname}/{strategy}"
        yield f"{key}/n_events", str(len(events))
        yield f"{key}/events", _digest(events)
        yield f"{key}/result", _digest(result)


def _imul_cases(traces) -> Iterator[Tuple[str, str]]:
    """IMUL hardening depths beyond the paper's one extra cycle."""
    for tname, (profile, trace) in traces.items():
        for cname in _CPUS:
            cpu = ALL_CPU_FACTORIES[cname]()
            points = [(s, off, depth) for s in _strategies(cpu)
                      for off in _OFFSETS for depth in (2, 3, 4, 5)]
            configs = [SweepConfig(s, off, 0, depth)
                       for s, off, depth in points]
            results = simulate_sweep(cpu, profile, trace, configs)
            for (s, off, depth), r in zip(points, results):
                yield (f"imul/{tname}/{cname}/{s}/{off}/d{depth}",
                       _digest(r))


#: One worker batch over 557.xz (a small trace) that mixes the default,
#: a short and a long deadline; IMUL depths None, 0, 1 and 3, including
#: on ``e``, which ignores the depth; two cores on the shared-domain
#: CPUs A and i5; and two seeds.
_SERVICE_BATCH = (
    dict(cpu="C", strategy="fV", voltage_offset=-0.097, seed=0),
    dict(cpu="C", strategy="fV", voltage_offset=-0.097, seed=0,
         deadline_us=5.0),
    dict(cpu="C", strategy="V", voltage_offset=-0.08, seed=0,
         deadline_us=700.0),
    dict(cpu="C", strategy="f", voltage_offset=-0.097, seed=0,
         imul_extra_cycles=0),
    dict(cpu="C", strategy="fV", voltage_offset=-0.12, seed=0,
         imul_extra_cycles=1),
    dict(cpu="C", strategy="V", voltage_offset=-0.097, seed=0,
         imul_extra_cycles=3),
    dict(cpu="C", strategy="e", voltage_offset=-0.097, seed=0,
         imul_extra_cycles=3),
    dict(cpu="C", strategy="fV", voltage_offset=-0.097, seed=1,
         deadline_us=5.0, imul_extra_cycles=3),
    dict(cpu="C", strategy="f", voltage_offset=-0.05, seed=1),
    dict(cpu="A", strategy="fV", voltage_offset=-0.097, seed=0, n_cores=2),
    dict(cpu="A", strategy="e", voltage_offset=-0.097, seed=0, n_cores=2,
         imul_extra_cycles=0),
    dict(cpu="i5", strategy="V", voltage_offset=-0.097, seed=1, n_cores=2,
         imul_extra_cycles=3),
)

#: Stands in for the package digest, which every source edit changes.
_FIXED_DIGEST = "0" * 64


def _service_requests():
    from repro.service.request import SimRequest

    return [SimRequest(workload="557.xz", **fields)
            for fields in _SERVICE_BATCH]


def _service_cases(traces) -> Iterator[Tuple[str, str]]:
    from repro.service.workers import execute_batch, execute_request

    wire = [request.to_dict() for request in _service_requests()]
    for i, outcome in enumerate(execute_batch(wire)):
        yield f"service/batch/{i}", _digest(
            {field: outcome.get(field) for field in
             ("status", "payload", "vectorized", "group_width")})
    for i, req in enumerate(wire):
        outcome = execute_request(req)
        yield f"service/request/{i}", _digest(
            {"status": outcome["status"], "payload": outcome["payload"]})


def _dse_jobs():
    """The unique simulation jobs of ``nginx_quick``'s first generation,
    in key order."""
    from repro.dse import DseRunner, SimJob, canned_search
    from repro.dse.space import random_genome

    spec = canned_search("nginx_quick")
    rng = DseRunner(spec)._rng_for(0)
    jobs = {}
    for _ in range(spec.population):
        job = SimJob.from_genome(spec, random_genome(spec, rng))
        jobs[job.key()] = job
    return spec, [jobs[key] for key in sorted(jobs)]


def _dse_cases(traces) -> Iterator[Tuple[str, str]]:
    from repro.dse.evaluate import evaluate_job_group

    spec, jobs = _dse_jobs()
    by_deadline: Dict[float, list] = {}
    for job in jobs:
        by_deadline.setdefault(job.deadline_us, []).append(job)
    payloads: Dict[str, dict] = {}
    for deadline in sorted(by_deadline):
        payloads.update(evaluate_job_group(spec, by_deadline[deadline]))
    for job in jobs:
        yield (f"dse/{job.strategy}/{job.offset_mv}/dl{job.deadline_us}/"
               f"d{job.imul_extra_cycles}", _digest(payloads[job.key()]))


def _key_cases(traces) -> Iterator[Tuple[str, str]]:
    from repro.dse.evaluate import LocalEvalBackend
    from repro.service.server import service_cache_key

    with mock.patch("repro.service.server.package_digest",
                    lambda: _FIXED_DIGEST):
        for i, request in enumerate(_service_requests()):
            yield f"keys/request/{i}", request.canonical_key()
            yield f"keys/service_cache/{i}", service_cache_key(request)
    spec, jobs = _dse_jobs()
    backend = LocalEvalBackend(spec)
    with mock.patch("repro.dse.evaluate.package_digest",
                    lambda: _FIXED_DIGEST):
        for i, job in enumerate(jobs):
            yield f"keys/job/{i}", job.key()
            yield f"keys/dse_cache/{i}", backend._cache_key(job)


_GROUPS = {
    "trace": _trace_cases,
    "sweep": _sweep_cases,
    "cores2": _multicore_cases,
    "direct": _direct_cases,
    "timeline": _timeline_cases,
    "traced": _traced_cases,
    "imul": _imul_cases,
    "service": _service_cases,
    "dse": _dse_cases,
    "keys": _key_cases,
}


def record_all() -> Dict[str, str]:
    """Every case of the grid, keyed by a readable case name."""
    traces = _traces()
    record: Dict[str, str] = {}
    for cases in _GROUPS.values():
        record.update(cases(traces))
    return record


@pytest.fixture(scope="module")
def traces():
    return _traces()


@pytest.fixture(scope="module")
def recorded() -> Dict[str, str]:
    return json.loads(DATA_PATH.read_text())


@pytest.mark.parametrize("group", list(_GROUPS))
def test_recorded_outputs_are_reproduced(group, traces, recorded):
    got = dict(_GROUPS[group](traces))
    want = {key: value for key, value in recorded.items()
            if key.split("/", 1)[0] == group}
    assert want, f"no recorded cases for group {group!r}"
    drift = sorted(key for key in want.keys() | got.keys()
                   if got.get(key) != want.get(key))
    assert not drift, f"{len(drift)} of {len(want)} cases drifted: " \
        f"{drift[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_regression.py"
                 " --update")
    DATA_PATH.parent.mkdir(exist_ok=True)
    cases = record_all()
    DATA_PATH.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {DATA_PATH}")
