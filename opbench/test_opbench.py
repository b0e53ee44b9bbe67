"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest opbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- the tail rule --------------------------------------------------------

@pytest.mark.parametrize("n, percentile, beyond", [
    (1, 50.0, 0), (5, 50.0, 2), (19, 50.0, 9), (20, 50.0, 10),
    (39, 50.0, 19), (40, 75.0, 10), (2345, 75.0, 586)])
def test_tail_is_highest_rung_with_ten_beyond(n, percentile, beyond):
    values = list(range(n, 0, -1))  # unsorted input
    got_percentile, value, got_beyond = harness.tail(values)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert sum(1 for v in values if v > value) == beyond


def test_tail_rejects_no_values():
    with pytest.raises(ValueError):
        harness.tail([])


# -- spans and self time --------------------------------------------------

def test_self_time_subtracts_nested_children():
    ops = [("op", 0.0, 10.0), ("a", 1.0, 6.0), ("b", 2.0, 3.0),
           ("b", 4.0, 5.0), ("c", 7.0, 9.0)]
    parents, selfs = spans.self_times(ops)
    assert parents == [None, 0, 1, 1, 0]
    assert selfs == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # Two children overlapping each other (threads) inside one parent.
    _, selfs = spans.self_times([("p", 0.0, 10.0), ("x", 1.0, 5.0),
                                 ("y", 3.0, 7.0)])
    assert selfs[0] == pytest.approx(4.0)


def _countdown(n):
    return 0 if n == 0 else 1 + _RECURSIVE.fn(n - 1)


class _RECURSIVE:
    fn = staticmethod(_countdown)


def test_recursive_calls_are_one_span():
    rec = spans.SpanRecorder()
    patches = spans.Patches()
    patches.set(_RECURSIVE, "fn",
                staticmethod(rec.timed("f", _countdown, outermost=True)))
    try:
        rec.begin(0)
        assert _RECURSIVE.fn(5) == 5
        rec.end(0, 0.0, 1e9)
        assert _RECURSIVE.fn(3) == 3  # no op in flight: not recorded
    finally:
        patches.restore()
    assert [s[0] for s in rec.spans] == ["f", "op"]
    assert _RECURSIVE.fn is _countdown


def test_layer_self_times_and_unattributed_add_up_to_the_op():
    rec = spans.SpanRecorder()
    rec.spans = [("op", 0.0, 0.010, 0),
                 ("core.run_profile", 0.001, 0.009, 0),
                 ("workloads.generate_trace", 0.002, 0.006, 0),
                 ("core.trace_simulator", 0.006, 0.008, 0)]
    metrics = spans.layer_metrics(rec)
    parts = [metrics["core.run_profile.self_ms"],
             metrics["workloads.generate_trace.self_ms"],
             metrics["core.trace_simulator.self_ms"],
             metrics["op.unattributed_ms"]]
    assert parts == pytest.approx([2.0, 4.0, 2.0, 2.0])
    assert sum(parts) == pytest.approx(10.0)
    assert metrics["workloads.generate_trace.calls"] == 1


# -- checks and digests on the real program -------------------------------

@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)


def _run(name, tmp_path, traced=False, max_ops=4, workload=None):
    workload = workload or workloads.WORKLOADS[name](3, tmp_path)
    recorder = patches = None
    if traced:
        recorder = spans.SpanRecorder()
        patches = spans.install_layer_probes(recorder)
    try:
        record = harness.run_closed_loop(workload, 1e9, 0.0,
                                         recorder=recorder, max_ops=max_ops)
    finally:
        workload.close()
        if patches is not None:
            patches.restore()
    return record, recorder


class _PlantedServe(workloads.Serve):
    """Corrupts the answer of op 2, whether it is new or a re-ask."""

    def op(self, arg):
        response = super().op(arg)
        self._op_count = getattr(self, "_op_count", -1) + 1
        if self._op_count == 2 + 9:  # after 8 set-up requests and warm-up
            response.payload = dict(response.payload,
                                    energy_rel=response.payload[
                                        "energy_rel"] * 1.001)
        return response


def test_planted_wrong_payload_is_a_failed_op(tmp_path, one_setup):
    record, _ = _run("serve", tmp_path, max_ops=6,
                     workload=_PlantedServe(3, tmp_path))
    assert sorted(record.errors) == [2]
    assert len(record.latencies_s) == 6


@pytest.mark.parametrize("name, max_ops", [("serve", 8), ("dse", 3)])
def test_traced_and_untraced_runs_agree_on_sim_digest(name, max_ops,
                                                       tmp_path, one_setup):
    plain, _ = _run(name, tmp_path, max_ops=max_ops)
    traced, recorder = _run(name, tmp_path, traced=True, max_ops=max_ops)
    assert not plain.errors and not traced.errors
    assert plain.sim_digest(max_ops) == traced.sim_digest(max_ops)
    assert recorder.spans and all(op % 2 == 0 for *_, op in recorder.spans)


def test_probes_restore_the_program():
    import repro.core.batchsim as batchsim
    import repro.core.suit as suit

    originals = (batchsim.simulate_sweep, suit.simulate_sweep,
                 suit.SuitSystem.run_profile)
    patches = spans.install_layer_probes(spans.SpanRecorder())
    assert suit.simulate_sweep is batchsim.simulate_sweep
    assert suit.simulate_sweep is not originals[0]
    patches.restore()
    assert (batchsim.simulate_sweep, suit.simulate_sweep,
            suit.SuitSystem.run_profile) == originals


# -- the contract with BENCHMARK.json and the CLI -------------------------

def test_metric_tables_match_benchmark_json():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)


def test_serve_is_configured_like_the_serve_cli():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--inline"])
    assert workloads.SERVE_CONFIG == dict(
        n_shards=args.shards, workers_per_shard=args.workers_per_shard,
        use_processes=not args.inline, max_queue_depth=args.max_queue,
        max_batch_size=args.batch_size,
        batch_window_s=args.batch_window_ms / 1000.0,
        default_timeout_s=args.timeout, share_traces=args.share_traces)
    assert workloads.SERVE_CACHE_MAX_BYTES == args.cache_max_bytes


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "opbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, table", [("0", "END_TO_END"),
                                          ("1", "PER_LAYER")])
def test_cli_prints_the_result_line(trace, table):
    import run

    done = _cli(ROOT, "--workload", "dse", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(getattr(run, table))


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "opbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli(tmp_path, "--workload", "cold", "--seed", "1",
                "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
