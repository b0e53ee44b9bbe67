"""Benchmark of the operating-point path: an operating point goes in,
simulated performance and energy come out.

Run from the root of a checkout::

    python3 opbench/run.py --workload cold|serve|dse --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate run with the per-layer wrappers of ``spans.py`` installed and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it (``{"meta": ...}``) records the run's details: tail
percentile and op count, ``sim_digest``, set-up breakdown, host and
versions.  See ``opbench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts the set-up time
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {
    "workloads.generate_trace.calls": "count",
    "workloads.generate_trace.self_ms": "ms",
    "workloads.cached_trace.hit_ratio": "ratio",
    "core.run_profile.self_ms": "ms",
    "core.trace_simulator.self_ms": "ms",
    "core.compile_episode.calls": "count",
    "core.compile_episode.self_ms": "ms",
    "core.simulate_sweep.calls": "count",
    "core.simulate_sweep.configs": "count",
    "core.simulate_sweep.self_ms": "ms",
    "core.simulate_sweep.ms_per_config": "ms",
    "runtime.cache_get.calls": "count",
    "runtime.cache_get.self_ms": "ms",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache_put.calls": "count",
    "runtime.cache_put.self_ms": "ms",
    "runtime.cache_prune.self_ms": "ms",
    "runtime.cache.entries": "count",
    "runtime.jsonify.self_ms": "ms",
    "service.protocol_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.batch_hold_ms": "ms",
    "service.handoff_ms": "ms",
    "service.execute_batch.self_ms": "ms",
    "service.batch_occupancy": "req/batch",
    "service.retries": "count",
    "service.rejected": "count",
    "dse.evaluate.self_ms": "ms",
    "dse.memo_hit_ratio": "ratio",
    "dse.security_headroom.self_ms": "ms",
    "dse.pareto.self_ms": "ms",
    "dse.hypervolume.self_ms": "ms",
    "dse.runner.self_ms": "ms",
    "dse.write_outputs.self_ms": "ms",
    "op.unattributed_ms": "ms",
    "op.trace_overhead_pct": "%",
}

#: The program modules each workload imports before its set-up.
IMPORTS = {
    "cold": ("repro.core.suit", "repro.core.batchsim",
             "repro.workloads.network", "repro.runtime.serialization"),
    "serve": ("repro.service", "repro.service.client",
              "repro.service.server", "repro.runtime.cache"),
    "dse": ("repro.dse.runner", "repro.dse.space", "repro.dse.report"),
}

#: Variables that would point the program at state outside the run.
UNSET_ENV = ("REPRO_TRACE_STORE", "REPRO_CACHE_DIR", "REPRO_CHAOS_PLAN")


def _git_sha():
    """HEAD's commit from ``.git`` when the checkout has one, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _host_speed_ms():
    """Reference timings of a fixed pure-Python loop and NumPy sort
    (metadata: they trace a noisy pair of runs to the host)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for k in range(300_000):
        total += k * k
    python_ms = (time.perf_counter() - start) * 1e3
    values = np.random.default_rng(0).random(500_000)
    start = time.perf_counter()
    np.sort(values)
    return {"python_loop_ms": python_ms,
            "numpy_sort_ms": (time.perf_counter() - start) * 1e3}


def _metric_block(values, units):
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"opbench: the program's source is missing ({src}/repro)",
              file=sys.stderr)
        return 2
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(src))

    import importlib

    import numpy

    import harness
    import spans
    import workloads

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - _START

    from repro.runtime.cache import package_digest

    speed_before = _host_speed_ms()
    work = ROOT / ".opbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    recorder = patches = None
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            recorder = spans.SpanRecorder()
            patches = spans.install_layer_probes(recorder)
        record = harness.run_closed_loop(workload, args.seconds, import_s,
                                         recorder=recorder)
    finally:
        try:
            workload.close()
        finally:
            if patches is not None:
                patches.restore()
            shutil.rmtree(work, ignore_errors=True)
    speed_after = _host_speed_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_ops = len(record.latencies_s)
    digest, digest_ops = record.sim_digest(workload.digest_ops)
    timed = harness.end_to_end(record.latencies_s)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": n_ops,
        "tail_percentile": timed["tail_percentile"],
        "tail_ops_beyond": timed["tail_ops_beyond"],
        "sim_digest": digest, "sim_digest_ops": digest_ops,
        "import_s": record.import_s, "setup_reps_s": record.setup_reps_s,
        "errors": {str(i): e for i, e in sorted(record.errors.items())[:8]},
        "git_sha": _git_sha(), "source_digest": package_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host_speed_before": speed_before, "host_speed_after": speed_after,
    }
    if args.trace:
        traced = [x for x, t in zip(record.latencies_s, record.traced) if t]
        idle = [x for x, t in zip(record.latencies_s, record.traced) if not t]
        values = spans.layer_metrics(
            recorder, "service.protocol_ms" if args.workload == "serve"
            else None)
        values.update(record.extras)
        if traced and idle:
            values["op.trace_overhead_pct"] = (
                statistics.median(traced) / statistics.median(idle) - 1) * 100
        spans_path = ROOT / ".opbench" / (
            f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.write(spans_path, _START)
        meta.update(traced_ops=len(traced),
                    spans=str(spans_path.relative_to(ROOT)))
        metrics = _metric_block(values, PER_LAYER)
    else:
        values = dict(timed, setup_s=record.setup_s, peak_rss_mb=peak_rss_mb)
        metrics = _metric_block(values, END_TO_END)

    failed = len(record.errors)
    line = " ".join(f"{name}={block['value']:.4g}"
                    for name, block in metrics.items())
    print(f"opbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n_ops} ops, {failed} failed; {line}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": n_ops,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
