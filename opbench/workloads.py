"""The three workloads: ``cold``, ``serve`` and ``dse``.

Each drives one public entry point as one caller that waits for every
answer (a closed loop), checks every answer, and derives all of its
inputs from the run seed.

* ``cold`` -- the first question about a trace nothing has synthesised:
  ``SuitSystem.run_profile`` on nginx with a fresh trace seed per op.
  Trace synthesis is most of the op, so it isolates ``workloads``.
* ``serve`` -- one what-if request at a time over JSON-lines TCP to an
  in-process ``SimulationService`` configured like ``repro serve
  --inline``.  It isolates ``service`` and ``runtime`` (batch window,
  result cache) on top of width-1 sweeps.
* ``dse`` -- one complete ``DseRunner`` search per op on 525.x264.  It
  isolates the sweep kernel and the DSE's own sort, hypervolume,
  checkpoint and report code.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import shutil
from html.parser import HTMLParser
from itertools import product
from pathlib import Path
from typing import Dict, List, Tuple

from harness import sub_seed


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class Cold:
    """``SuitSystem.for_cpu("C", ...).run_profile(NGINX_PROFILE)`` with a
    fresh trace seed per op, strategies cycling fV, f, V.

    The trace cache is cleared after every op, outside the timed region,
    so every op synthesises its trace and the run holds one nginx trace
    (about 140 MB with its compiled episode) at a time.
    """

    name = "cold"
    digest_ops = 16
    strategies = ("fV", "f", "V")
    offset_v = -0.097

    def __init__(self, seed: int, work: Path) -> None:
        # Op i uses trace seed base + i; set-up repetition r uses
        # base - 1 - r, so no op reuses a set-up trace.
        self.base = 8 + sub_seed(seed, "cold") * 4096

    def setup(self, rep: int) -> None:
        _release_traces()
        arg = (self.strategies[rep % 3], self.base - 1 - rep)
        _, error = self.check(-1, arg, self.op(arg))
        if error is not None:
            raise RuntimeError(f"cold set-up: {error}")

    def prepare(self, i: int):
        _release_traces()
        return self.strategies[i % 3], self.base + i

    def op(self, arg):
        from repro.core.suit import SuitSystem
        from repro.workloads.network import NGINX_PROFILE

        strategy, seed = arg
        system = SuitSystem.for_cpu("C", strategy_name=strategy,
                                    voltage_offset=self.offset_v, seed=seed)
        return system, system.run_profile(NGINX_PROFILE)

    def check(self, i, arg, out):
        """The answer must equal a width-1 ``simulate_sweep`` of the same
        trace and config."""
        from repro.core.batchsim import SweepConfig, simulate_sweep
        from repro.runtime.serialization import jsonify
        from repro.workloads.network import NGINX_PROFILE
        from repro.workloads.tracecache import cached_trace

        system, result = out
        got = jsonify(result)
        [ref] = simulate_sweep(
            system.cpu, NGINX_PROFILE, cached_trace(NGINX_PROFILE, system.seed),
            [SweepConfig(strategy=system.strategy_name,
                         voltage_offset=system.voltage_offset,
                         seed=system.seed)],
            params=system.params)
        want = jsonify(ref)
        error = None if got == want else (
            f"run_profile({arg}) differs from the width-1 sweep")
        return _canonical(got), error

    def finish(self) -> Dict[int, str]:
        return {}

    def layer_extras(self, n_ops: int) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        _release_traces()


def _release_traces() -> None:
    """Clear the trace cache and free what it held.

    The sweep kernel caches a compiled episode on its trace and the
    episode points back at the trace, so a dropped trace is freed only
    by the cycle collector; collecting here, between ops, keeps one
    trace in memory at a time instead of whatever the collector's
    timing leaves behind.
    """
    from repro.workloads.tracecache import clear_trace_cache

    clear_trace_cache()
    gc.collect()


#: How ``python -m repro serve --inline`` configures the service with
#: its default flags (the benchmark's tests compare against the CLI).
SERVE_CONFIG = dict(n_shards=2, workers_per_shard=2, use_processes=False,
                    max_queue_depth=128, max_batch_size=8,
                    batch_window_s=0.005, default_timeout_s=60.0,
                    share_traces=False)
#: The CLI's default result-cache cap (1 GiB): every put prunes.
SERVE_CACHE_MAX_BYTES = 1 << 30


class Serve:
    """One request at a time to a ``SimulationService`` over TCP.

    Requests range over CPU A or C x four workloads x fV/f/V/e x offsets
    on a 1 mV grid from -150 to -50 mV, all at one trace seed per run,
    default priority and legacy fields only.  About a quarter re-ask an
    earlier request (a result-cache hit); the rest are new, drawn from a
    seeded permutation of the space.
    """

    name = "serve"
    digest_ops = 512
    cpus = ("A", "C")
    workloads = ("nginx", "vlc", "557.xz", "520.omnetpp")
    strategies = ("fV", "f", "V", "e")
    offsets_mv = tuple(range(-150, -49))
    reask_share = 0.25
    oracle_sample = 24

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.loop = asyncio.new_event_loop()
        self.service = self.server = self.client = self.cache = None

    def _reset_requests(self) -> None:
        """The run's request plan, identical in every set-up repetition."""
        self.rng = random.Random(sub_seed(self.seed, "serve"))
        self.trace_seed = self.rng.randrange(1 << 20)
        space = list(product(self.cpus, self.workloads, self.strategies,
                             self.offsets_mv))
        self.rng.shuffle(space)
        # One request per (CPU, workload) with a sweep strategy, so each
        # trace is synthesised and compiled before timing starts.
        self.setup_keys = [
            (cpu, workload, self.rng.choice(self.strategies[:3]),
             self.rng.choice(self.offsets_mv))
            for cpu, workload in product(self.cpus, self.workloads)]
        taken = set(self.setup_keys)
        self.pending = [key for key in space if key not in taken]
        self.asked: List[tuple] = []
        self.answers: Dict[tuple, bytes] = {}
        self.computed: List[Tuple[int, tuple]] = []

    def request(self, key):
        from repro.service.request import SimRequest

        cpu, workload, strategy, offset_mv = key
        return SimRequest(cpu=cpu, workload=workload, strategy=strategy,
                          voltage_offset=offset_mv / 1000.0,
                          seed=self.trace_seed)

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def setup(self, rep: int) -> None:
        """Start a fresh service (fresh cache directory, no traces in
        memory), send the set-up requests and one warm-up op."""
        from repro.runtime.cache import ResultCache
        from repro.service import ServiceConfig, SimulationService
        from repro.service.client import ServiceClient
        from repro.service.server import start_tcp_server

        self._stop()
        self._forget_traces()
        self._reset_requests()
        self.cache = ResultCache(self.work / f"result-cache-{rep}",
                                 max_bytes=SERVE_CACHE_MAX_BYTES)
        self.service = SimulationService(ServiceConfig(**SERVE_CONFIG),
                                         cache=self.cache)
        self._run(self.service.start())
        self.server = self._run(start_tcp_server(self.service,
                                                 "127.0.0.1", 0))
        port = self.server.sockets[0].getsockname()[1]
        self.client = self._run(ServiceClient.connect("127.0.0.1", port))
        for key in self.setup_keys:
            self._setup_op(("new", key))
        self._setup_op(self.prepare(-1))

    def _setup_op(self, arg) -> None:
        _, error = self.check(-1, arg, self.op(arg))
        if error is not None:
            raise RuntimeError(f"serve set-up: {error}")

    def prepare(self, i: int):
        if self.asked and (not self.pending
                           or self.rng.random() < self.reask_share):
            return "reask", self.rng.choice(self.asked)
        return "new", self.pending.pop()

    def op(self, arg):
        return self._run(self.client.submit(self.request(arg[1])))

    def check(self, i, arg, response):
        kind, key = arg
        if kind == "new":
            self.asked.append(key)
        request = self.request(key)
        if not response.ok or not isinstance(response.payload, dict):
            return b"", f"{key}: status {response.status}: {response.error}"
        if response.request.to_dict() != request.to_dict():
            return b"", f"{key}: response echoes another request"
        answer = _canonical(response.payload)
        first = self.answers.setdefault(key, answer)
        if first != answer:
            return answer, f"{key}: re-ask differs from the first answer"
        if kind == "new" and i >= 0:
            self.computed.append((i, key))
        return answer, None

    def finish(self) -> Dict[int, str]:
        """A seed-chosen sample of computed answers must equal the
        reference ``repro.testkit.oracle`` builds (``run_profile`` then
        ``jsonify``)."""
        from repro.testkit.oracle import DifferentialOracle

        sample = random.Random(sub_seed(self.seed, "serve/oracle")).sample(
            self.computed, min(self.oracle_sample, len(self.computed)))
        if not sample:
            return {}
        oracle = DifferentialOracle([self.request(key) for _, key in sample])
        errors = {}
        for (i, key), want in zip(sample, oracle.reference()):
            if _canonical(want) != self.answers[key]:
                errors[i] = f"{key}: answer differs from the oracle reference"
        return errors

    def layer_extras(self, n_ops: int) -> Dict[str, float]:
        metrics = self.service.metrics
        occupancy = metrics.batch_occupancy.snapshot()
        counters = metrics.snapshot()["counters"]
        return {
            "runtime.cache.entries": float(len(self.cache)),
            "service.batch_occupancy": (occupancy.total / occupancy.n
                                        if occupancy.n else 0.0),
            "service.retries": counters.get("batch_retries", 0) / n_ops,
            "service.rejected": counters.get("requests_rejected", 0) / n_ops,
        }

    def _forget_traces(self) -> None:
        """Drop every in-memory trace, so a set-up repetition
        synthesises its traces like a freshly started service."""
        import repro.service.workers as workers

        # The thread tier memoises configured systems (and their traces)
        # per process; a new process starts without them.
        memo = getattr(workers, "_SYSTEM_CACHE", None)
        if memo is not None:
            memo.clear()
        _release_traces()

    def _stop(self) -> None:
        if self.client is not None:
            self._run(self.client.close())
        if self.server is not None:
            self.server.close()
            self._run(self.server.wait_closed())
        if self.service is not None:
            self._run(self.service.stop())
        self.service = self.server = self.client = None
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
            self.cache = None

    def close(self) -> None:
        try:
            self._stop()
            self._forget_traces()
            self._run(self.loop.shutdown_asyncgens())
        finally:
            self.loop.close()


def _dominates(a, b) -> bool:
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


class Dse:
    """One ``DseRunner`` search per op, as ``python -m repro dse run
    --out DIR`` runs it (in-process ``LocalEvalBackend``, one job).

    The canned ``nginx_pareto`` shape (4 generations x 16 genomes,
    default grids, CPU C) on 525.x264, with a distinct seed per op, so
    each op synthesises its (small) trace and searches from scratch.
    """

    name = "dse"
    digest_ops = 8
    workload = "525.x264"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        # Op i searches seed base + i; set-up repetition r searches
        # base - 1 - r, a seed no op uses.
        self.base = 8 + sub_seed(seed, "dse") * 4096
        self.reports: Dict[int, str] = {}

    def spec(self, seed: int):
        from repro.dse.space import CANNED_SEARCHES

        return CANNED_SEARCHES["nginx_pareto"].with_overrides(
            name="x264_pareto", workload=self.workload, seed=seed)

    def setup(self, rep: int) -> None:
        arg = (self.base - 1 - rep, self.work / f"setup-{rep}")
        _, error = self.check(-1, arg, self.op(arg))
        if error is not None:
            raise RuntimeError(f"dse set-up: {error}")

    def prepare(self, i: int):
        return self.base + i, self.work / f"op-{i}"

    def op(self, arg):
        from repro.dse.runner import DseRunner

        seed, out_dir = arg
        runner = DseRunner(self.spec(seed), out_dir=out_dir, jobs=1)
        runner.run()
        runner.write_outputs(html=True)
        return out_dir

    def check(self, i, arg, out_dir):
        """The front is non-empty and mutually non-dominated, the
        recommendation is violation-free, and report and HTML parse."""
        from repro.dse.runner import HTML_NAME, REPORT_NAME

        try:
            raw = (out_dir / REPORT_NAME).read_bytes()
            html = (out_dir / HTML_NAME).read_text(encoding="utf-8")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        report = json.loads(raw)
        parser = HTMLParser()
        parser.feed(html)
        parser.close()
        digest = hashlib.sha256(raw).hexdigest()
        if i >= 0:
            self.reports[i] = digest
        front = [r["objectives"] for r in report["front"]]
        if not front:
            return raw, "empty front"
        for a, b in product(front, front):
            if _dominates(a, b):
                return raw, "a front member dominates another"
        rec = report.get("recommendation")
        if not rec or rec["violation_mv"] != 0.0:
            return raw, "recommendation missing or violates the floor"
        return raw, None

    def finish(self) -> Dict[int, str]:
        """One seed-chosen search, re-run untimed, must write a
        byte-identical ``dse_report.json``."""
        if not self.reports:
            return {}
        i = random.Random(sub_seed(self.seed, "dse/rerun")).choice(
            sorted(self.reports))
        arg = (self.base + i, self.work / "rerun")
        raw, _ = self.check(-1, arg, self.op(arg))
        if hashlib.sha256(raw).hexdigest() != self.reports[i]:
            return {i: "re-run wrote a different dse_report.json"}
        return {}

    def layer_extras(self, n_ops: int) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


#: Workload classes by name; each is built as ``cls(seed, work_dir)``.
WORKLOADS = {cls.name: cls for cls in (Cold, Serve, Dse)}
