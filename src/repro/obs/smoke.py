"""The observability smoke: one small service, every obs claim checked.

``python -m repro obs smoke`` (and ``make obs-smoke``) runs a complete
miniature of the observability story against a real in-process
:class:`~repro.service.server.SimulationService` with thread workers,
and asserts the three claims ``docs/observability.md`` makes:

1. **Distributed tracing** — every request yields one span tree: a
   ``service.submit`` root whose child is the ``worker.execute`` span
   on the worker's lane, free of orphan spans, each child inside its
   parent's interval.
2. **Windowed time-series** — after a slow warm-up burst followed by
   fast traffic, the windowed p95 of ``latency_s`` diverges from (sits
   below) the cumulative histogram's p95, which still remembers the
   warm-up.
3. **SLO burn-rate alerting** — a latency SLO fires while the injected
   slow burst burns both windows, carries flight-recorder exemplar
   trace ids, and resolves once the fast window cools.

The scraper and the SLO monitor share one
:class:`~repro.testkit.clock.FakeClock`, advanced by one scrape
interval per burst and by ``settle_s`` before the last one, so which
burst lands in which window does not depend on how fast the host runs
them; only the requests' own latencies are real.

The run writes three artefacts into ``out_dir``: the Chrome trace
(``trace.json``), the HTML dashboard (``dashboard.html``, validated
with :mod:`html.parser`) and the machine-readable verdict
(``report.json``).  Everything is stdlib + repro; the service is
stopped and the process-wide tracer restored no matter what failed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.context import (
    assert_span_containment,
    orphan_spans,
    span_tree,
    trace_ids_in,
)
from repro.obs.dashboard import render_obs_dashboard
from repro.obs.slo import SLO, BurnRatePolicy, SLOMonitor
from repro.obs.timeseries import MetricsScraper
from repro.obs.tracer import Tracer, set_tracer
from repro.testkit.clock import FakeClock

__all__ = ["ObsSmokeConfig", "run_obs_smoke"]


@dataclass
class ObsSmokeConfig:
    """Knobs of one observability smoke run.

    Attributes:
        out_dir: where the trace/dashboard/report artefacts land.
        n_slow / n_fast: request counts of the injected-latency burst
            and each of the two fast bursts.
        slow_sleep_s / fast_sleep_s: per-request worker hold times
            (``__sleep__:`` fault-injection workloads — deterministic
            latency without real simulations).
        latency_threshold_s: the latency SLO's "fast enough" bound;
            must separate the two sleep times.
        objective: the SLO's good fraction (0.95 → slow bursts burn at
            20x, over both default thresholds).
        fast_window_s / slow_window_s: the burn windows, compressed
            from 5m/1h onto the smoke's seconds-long timeline.
        settle_s: fake-clock time between the firing and resolving
            evaluations — long enough for the slow burst to leave the
            fast window.
    """

    out_dir: Path = Path("obs-smoke")
    n_slow: int = 12
    n_fast: int = 19
    slow_sleep_s: float = 0.2
    fast_sleep_s: float = 0.002
    latency_threshold_s: float = 0.05
    objective: float = 0.95
    fast_window_s: float = 0.6
    slow_window_s: float = 30.0
    settle_s: float = 0.7

    @property
    def n_requests(self) -> int:
        """Total requests the smoke drives (slow + two fast bursts)."""
        return self.n_slow + 2 * self.n_fast


#: CPU names cycled through so requests spread over several batches.
_CPUS = ("A", "C", "i5")


class _DashboardCheck(HTMLParser):
    """Counts the structural tags a valid dashboard must contain."""

    def __init__(self) -> None:
        super().__init__()
        self.tags: Dict[str, int] = {}

    def handle_starttag(self, tag: str, attrs) -> None:
        self.tags[tag] = self.tags.get(tag, 0) + 1


def validate_dashboard_html(text: str) -> Dict[str, int]:
    """Parse dashboard HTML with :mod:`html.parser`; returns the tag
    counts after asserting the structural minimum (a title, at least
    one table, at least one SVG sparkline)."""
    parser = _DashboardCheck()
    parser.feed(text)
    parser.close()
    for required in ("title", "table", "svg"):
        if parser.tags.get(required, 0) < 1:
            raise AssertionError(
                f"dashboard HTML is missing a <{required}> element")
    return parser.tags


def _proc(event: dict) -> Optional[str]:
    return (event.get("args") or {}).get("proc")


def _stitched_traces(events: List[dict]) -> List[dict]:
    """Traces shaped ``service.submit`` → ``worker.execute``, with the
    two spans on different lanes (``args.proc``)."""
    stitched = []
    for trace_id in trace_ids_in(events):
        tree = span_tree(events, trace_id)
        if [e["name"] for e in tree["roots"]] != ["service.submit"]:
            continue
        root = tree["roots"][0]
        kids = tree["children"].get(root["args"]["span_id"], [])
        if [e["name"] for e in kids] != ["worker.execute"]:
            continue
        stitched.append({"trace_id": trace_id, "n_spans": 1 + len(kids),
                         "n_lanes": len({_proc(root), _proc(kids[0])})})
    return stitched


async def _run(cfg: ObsSmokeConfig) -> dict:
    from repro.service.request import SimRequest
    from repro.service.server import ServiceConfig, SimulationService

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    previous = set_tracer(tracer)
    service = SimulationService(ServiceConfig(
        n_shards=1, workers_per_shard=2, use_processes=False,
        batch_window_s=0.002, default_timeout_s=30.0))
    clock = FakeClock()
    scraper = MetricsScraper(interval_s=0.05, clock=clock)
    monitor = SLOMonitor(
        scraper,
        slos=[SLO(name="latency-p95", objective=cfg.objective,
                  latency_threshold_s=cfg.latency_threshold_s,
                  description=f"{cfg.objective:.0%} of requests within "
                              f"{cfg.latency_threshold_s * 1e3:.0f}ms")],
        policy=BurnRatePolicy(fast_window_s=cfg.fast_window_s,
                              slow_window_s=cfg.slow_window_s),
        flight=service.flight, clock=clock)

    async def burst(n: int, sleep_s: float, tag: int) -> List:
        """Drive one burst, then scrape one interval later."""
        responses = await asyncio.gather(*(
            service.submit(SimRequest(cpu=_CPUS[i % len(_CPUS)],
                                      workload=f"__sleep__:{sleep_s}",
                                      seed=tag * 1000 + i))
            for i in range(n)))
        clock.advance(scraper.interval_s)
        scraper.ingest(service.metrics.snapshot())
        return responses

    report: dict = {"config": {
        "n_requests": cfg.n_requests,
        "slow_sleep_s": cfg.slow_sleep_s, "fast_sleep_s": cfg.fast_sleep_s,
        "latency_threshold_s": cfg.latency_threshold_s,
        "objective": cfg.objective}}
    checks: Dict[str, bool] = {}
    try:
        await service.start()
        scraper.ingest(service.metrics.snapshot())  # the delta baseline

        # Phase 1: injected latency — every request over the threshold.
        slow = await burst(cfg.n_slow, cfg.slow_sleep_s, 1)
        fired = monitor.evaluate()
        checks["alert_fired"] = any(a.firing for a in fired)
        checks["alert_has_exemplars"] = any(a.exemplar_trace_ids
                                            for a in fired)

        # Phase 2: healthy traffic; let the slow burst leave the fast
        # window, then prove the alert resolves on fresh evidence.
        fast1 = await burst(cfg.n_fast, cfg.fast_sleep_s, 2)
        clock.advance(cfg.settle_s)
        fast2 = await burst(cfg.n_fast, cfg.fast_sleep_s, 3)
        resolved = monitor.evaluate()
        checks["alert_resolved"] = (any(not a.firing for a in resolved)
                                    and not monitor.firing)
        checks["all_requests_ok"] = all(
            r.status == "ok" for r in slow + fast1 + fast2)

        # Windowed-vs-cumulative divergence: the cumulative histogram
        # still remembers the slow burst; the window has forgotten it.
        windowed_p95 = scraper.windowed_percentile("latency_s", 0.95,
                                                   cfg.fast_window_s)
        newest = scraper.samples[-1]
        cumulative_p95 = (newest.histograms.get("latency_s") or {}).get("p95")
        report["windowed_p95_s"] = windowed_p95
        report["cumulative_p95_s"] = cumulative_p95
        checks["windowed_p95_present"] = windowed_p95 is not None
        checks["windowed_below_cumulative"] = (
            windowed_p95 is not None and cumulative_p95 is not None
            and windowed_p95 < cumulative_p95)

        # The service's own trace.
        trace = tracer.to_chrome_trace()
        trace_path = out_dir / "trace.json"
        trace_path.write_text(json.dumps(trace), encoding="utf-8")
        events = trace["traceEvents"]
        stitched = _stitched_traces(events)
        traces = trace_ids_in(events)
        checks["stitched_trace"] = len(stitched) == cfg.n_requests
        checks["no_orphan_spans"] = all(
            not orphan_spans(events, t) for t in traces)
        contained = 0
        for entry in stitched:
            contained += assert_span_containment(events, entry["trace_id"])
        checks["span_containment"] = contained > 0
        lanes = {_proc(e) for e in events} - {None}
        report["stitched_traces"] = stitched[:8]
        report["n_stitched_traces"] = len(stitched)
        report["n_process_lanes"] = len(lanes)
        report["trace_path"] = str(trace_path)

        # The dashboard, validated structurally.
        page = render_obs_dashboard(
            {"service": scraper}, monitor=monitor,
            flight=service.flight.to_json_dict(),
            trace_summary={"n_processes": len(lanes),
                           "n_stitched_traces": len(stitched),
                           "path": trace_path},
            title="repro obs smoke", window_s=cfg.fast_window_s)
        dashboard_path = out_dir / "dashboard.html"
        dashboard_path.write_text(page, encoding="utf-8")
        validate_dashboard_html(page)
        checks["dashboard_valid"] = True
        report["dashboard_path"] = str(dashboard_path)
    finally:
        await service.stop(drain=True)
        set_tracer(previous)

    report["alerts"] = [a.to_json_dict() for a in monitor.alerts]
    report["checks"] = checks
    report["passed"] = bool(checks) and all(checks.values())
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return report


def run_obs_smoke(config: Optional[ObsSmokeConfig] = None) -> dict:
    """Run the observability smoke synchronously; returns the report."""
    return asyncio.run(_run(config or ObsSmokeConfig()))
