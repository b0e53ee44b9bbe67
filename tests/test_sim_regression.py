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
* the sim-track tracer events of traced runs.

It runs over two traces: a synthetic trace spanning several 4,096-event
index blocks, and a trace generated from a small workload profile.

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
            configs = [SweepConfig(s, off, seed, harden)
                       for s in _strategies(cpu)
                       for off in _OFFSETS
                       for seed in _SEEDS
                       for harden in (True, False)]
            configs += [SweepConfig("e", off) for off in _OFFSETS]
            results = simulate_sweep(cpu, profile, trace, configs)
            for c, r in zip(configs, results):
                yield (f"sweep/{tname}/{cname}/{c.strategy}/"
                       f"{c.voltage_offset}/s{c.seed}/h{int(c.harden_imul)}",
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


_GROUPS = {
    "trace": _trace_cases,
    "sweep": _sweep_cases,
    "cores2": _multicore_cases,
    "direct": _direct_cases,
    "timeline": _timeline_cases,
    "traced": _traced_cases,
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
