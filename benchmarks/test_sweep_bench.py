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

The measurement is written to ``BENCH_simulator.json`` at the repo
root, with the config count, each side's wall seconds and the ratio.

``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` CI hook) shrinks the
sweep to a small synthetic trace, checks the same bound, and leaves the
committed JSON untouched.
"""

from __future__ import annotations

import json
import os
import platform
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

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

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
    record = {
        "benchmark": "single_config_runs_vs_sweep",
        "workload": profile.name,
        "n_events": int(trace.n_events),
        "n_configs": len(configs),
        "separate_wall_s": round(separate_s, 3),
        "sweep_wall_s": round(sweep_s, 3),
        "per_config_ratio": round(ratio, 2),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "smoke": SMOKE,
    }
    print(json.dumps(record, indent=2))
    if not SMOKE:
        BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    assert ratio <= MAX_PER_CONFIG_RATIO, (
        f"separate runs cost {ratio:.2f}x a sweep per config")


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
