"""Sweep benchmark: single-config runs vs one many-config sweep.

Every simulation runs one state machine, :class:`~repro.core.simulator.
TraceSimulator`, on the trace's compiled
:class:`~repro.core.simulator.TraceEpisode`.  A config run on its own
(as :meth:`~repro.core.suit.SuitSystem.run_profile`, the differential
oracle's reference and the experiments run them) should therefore cost
about what the same config costs inside one
:func:`~repro.core.batchsim.simulate_sweep` call.  This benchmark times
>= 64 configs over one trap-dense trace (the paper's Nginx workload)
both ways:

* **separate** — one ``TraceSimulator(...).run()`` per config;
* **sweep** — one ``simulate_sweep`` call over all configs.

Each side starts from an uncompiled trace, so each pays for one episode
compilation, and each side's time is the best of three repetitions.
Results must be equal config by config (``==`` on the jsonified
results).  The bound: the separate runs' per-config wall time is at
most twice the sweep's.  A single-config path that rescans the gap
array instead of using the block index fails it (such a path measured
about 7.6x on the full workload).

A second test measures the replay cost itself: one ``simulate_sweep``
of 525.x264 (the ``dse`` benchmark workload's trace) on CPU C over
``fV``/``f``/``V`` x 11 offsets, best of three, results ``==`` across
the runs, recorded as wall milliseconds per config.

Each test appends one record to ``BENCH_simulator.json`` at the repo
root, a JSON list kept as a trajectory.  A record names its benchmark
and measurements, the git sha of the checkout (and whether its
``src/`` had uncommitted changes) and the host: core count, Python and
NumPy versions.

``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` CI hook) shrinks the
first sweep to a small synthetic trace, checks the same bound and the
replay test's ``==``, and writes nothing.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.params import default_params_for
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.hardware.models import cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.runtime.serialization import jsonify
from repro.workloads.generator import generate_trace
from repro.workloads.network import NGINX_PROFILE
from repro.workloads.profile import WorkloadProfile
from repro.workloads.resolve import resolve_profile

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_simulator.json"

#: Separate runs may cost at most this multiple of a sweep, per config.
MAX_PER_CONFIG_RATIO = 2.0

#: Nginx-shaped (1.4 M events in four long dense episodes), so the gap
#: search dominates and a rescanning single-config path fails the
#: bound here too.
_SMOKE_PROFILE = WorkloadProfile(
    name="smoke", suite="network", n_instructions=100_000_000, ipc=1.5,
    efficient_occupancy=0.36, n_episodes=4, dense_gap=45,
    imul_density=0.001, opcode_mix={Opcode.VOR: 1.0})


def _configs(n_offsets: int, n_seeds: int):
    """fV and V sweeps across offsets x seeds (the search-heavy paths)."""
    offsets = [-0.070 - 0.004 * i for i in range(n_offsets)]
    return [SweepConfig(strategy=s, voltage_offset=off, seed=seed)
            for s in ("fV", "V")
            for off in offsets
            for seed in range(n_seeds)]


def _best_of_three(run, trace):
    """(best wall seconds, results) of three runs from an uncompiled
    trace."""
    best = np.inf
    for _ in range(3):
        trace._episode = None
        start = time.perf_counter()
        results = run()
        best = min(best, time.perf_counter() - start)
    return best, results


def _git(*args: str) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _append_record(benchmark: str, measured: dict) -> None:
    """Print the record and, in a full run, append it to the ledger."""
    record = {
        "benchmark": benchmark,
        **measured,
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "smoke": SMOKE,
    }
    print(json.dumps(record, indent=2))
    if SMOKE:
        return
    records = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else []
    records.append(record)
    BENCH_PATH.write_text(json.dumps(records, indent=2) + "\n")


def test_single_config_runs_cost_what_a_sweep_costs():
    cpu = cpu_c_xeon_4208()
    params = default_params_for(cpu.vendor)
    profile = _SMOKE_PROFILE if SMOKE else NGINX_PROFILE
    configs = _configs(2, 2) if SMOKE else _configs(8, 4)
    assert SMOKE or len(configs) >= 64
    trace = generate_trace(profile, seed=0)

    def separate():
        return [TraceSimulator(cpu, profile, trace,
                               strategy_for(c.strategy, params),
                               c.voltage_offset, seed=c.seed).run()
                for c in configs]

    def sweep():
        return simulate_sweep(cpu, profile, trace, configs, params=params)

    separate_s, separate_results = _best_of_three(separate, trace)
    sweep_s, sweep_results = _best_of_three(sweep, trace)
    assert jsonify(separate_results) == jsonify(sweep_results)

    ratio = separate_s / sweep_s
    _append_record("single_config_runs_vs_sweep", {
        "workload": profile.name,
        "n_events": int(trace.n_events),
        "n_configs": len(configs),
        "separate_wall_s": round(separate_s, 3),
        "sweep_wall_s": round(sweep_s, 3),
        "per_config_ratio": round(ratio, 2),
    })
    assert ratio <= MAX_PER_CONFIG_RATIO, (
        f"separate runs cost {ratio:.2f}x a sweep per config")


def test_replay_cost_per_config():
    """Wall time per config of one sweep over a small SPEC trace, where
    the per-event Python path, not the gap search, is the cost."""
    cpu = cpu_c_xeon_4208()
    profile = resolve_profile("525.x264")
    trace = generate_trace(profile, seed=0)
    configs = [SweepConfig(strategy=s, voltage_offset=-0.050 - 0.010 * i)
               for s in ("fV", "f", "V") for i in range(11)]

    runs = []
    for _ in range(3):
        start = time.perf_counter()
        results = simulate_sweep(cpu, profile, trace, configs)
        runs.append((time.perf_counter() - start, jsonify(results)))
    assert all(payload == runs[0][1] for _, payload in runs)

    best_s = min(wall for wall, _ in runs)
    _append_record("replay_cost", {
        "workload": profile.name,
        "cpu": cpu.name,
        "n_events": int(trace.n_events),
        "n_configs": len(configs),
        "wall_s": round(best_s, 4),
        "ms_per_config": round(best_s * 1e3 / len(configs), 3),
    })


@pytest.mark.skipif(SMOKE, reason="store fan-out timing is full-mode only")
def test_shared_store_attach_beats_regeneration():
    """Attaching a published trace must be far cheaper than
    re-synthesising it — the point of the zero-copy store."""
    from repro.workloads.tracestore import SharedTraceStore

    store = SharedTraceStore.create("bench")
    try:
        start = time.perf_counter()
        trace = generate_trace(NGINX_PROFILE, seed=0)
        generate_s = time.perf_counter() - start

        store.publish("bench-key", trace)
        store._traces.clear()  # force a true re-attach, not the cache
        start = time.perf_counter()
        attached = store.get("bench-key")
        attach_s = time.perf_counter() - start

        assert attached is not None
        assert attached.n_events == trace.n_events
        assert attach_s < generate_s / 10
        print(f"generate {generate_s * 1e3:.1f} ms vs "
              f"attach {attach_s * 1e3:.3f} ms")
    finally:
        store.cleanup()
