"""The text top view and the HTML dashboard (``repro.obs.dashboard``)."""

from __future__ import annotations

import pytest

from repro.obs.dashboard import (
    render_obs_dashboard,
    render_top,
    sparkline_svg,
)
from repro.obs.slo import SLO, BurnRatePolicy, SLOMonitor
from repro.obs.smoke import validate_dashboard_html
from repro.obs.timeseries import MetricsScraper
from repro.testkit.clock import FakeClock

from tests.test_obs_timeseries import hist, snap


@pytest.fixture
def clock():
    return FakeClock(start=50.0)


@pytest.fixture
def scrapers(clock):
    """Two targets with a little history each."""
    out = {}
    for name, slow in (("node-0", 0), ("node-1", 40)):
        scraper = MetricsScraper(interval_s=1.0, clock=clock)
        scraper.ingest(snap(
            counters={"requests_submitted": 0, "requests_completed": 0,
                      "requests_failed": 0},
            gauges={"queue_depth": 0.0},
            histograms={"latency_s": hist([0, 0, 0, 0])}))
        clock.advance(1.0)
        scraper.ingest(snap(
            counters={"requests_submitted": 20, "requests_completed": 18,
                      "requests_failed": 2},
            gauges={"queue_depth": 4.0},
            histograms={"latency_s": hist([15, 3, slow, 0],
                                          max_seen=2.0)}))
        out[name] = scraper
    return out


def monitor_for(scrapers, clock, fire=False):
    monitor = SLOMonitor(
        scrapers["node-1"],
        slos=[SLO(name="latency-p95", objective=0.95,
                  latency_threshold_s=0.01)],
        policy=BurnRatePolicy(fast_window_s=5.0, slow_window_s=60.0),
        clock=clock)
    if fire:
        monitor.evaluate()
    return monitor


class TestRenderTop:
    def test_one_row_per_target(self, scrapers, clock):
        text = render_top(scrapers, window_s=10.0)
        lines = text.splitlines()
        assert "target" in lines[0] and "win p95" in lines[0]
        assert any(line.startswith("node-0") for line in lines)
        assert any(line.startswith("node-1") for line in lines)

    def test_slo_section_flags_firing(self, scrapers, clock):
        monitor = monitor_for(scrapers, clock, fire=True)
        assert monitor.firing  # 43/58 breaches of the 10ms bar
        text = render_top(scrapers, monitor=monitor, window_s=10.0)
        assert "FIRING" in text
        assert "latency-p95" in text


class TestRenderDashboard:
    def test_validates_and_carries_sections(self, scrapers, clock):
        monitor = monitor_for(scrapers, clock, fire=True)
        flight = {"slowest": [{"trace_id": "ab" * 8, "latency_s": 1.5,
                               "status": "ok"}],
                  "failures": []}
        page = render_obs_dashboard(
            scrapers, monitor=monitor, flight=flight,
            trace_summary={"n_processes": 4, "n_stitched_traces": 9,
                           "path": "trace.json"},
            title="service obs", window_s=10.0)
        tags = validate_dashboard_html(page)
        assert tags["table"] >= 2  # targets + SLOs at minimum
        assert tags["svg"] >= 1    # sparklines
        assert "service obs" in page
        assert "ab" * 8 in page    # flight exemplar listed
        assert "trace.json" in page

    def test_renders_without_optional_sections(self, scrapers):
        page = render_obs_dashboard(scrapers)
        validate_dashboard_html(page)

    def test_sparkline_svg_is_self_contained(self):
        svg = sparkline_svg([1.0, 3.0, 2.0])
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg

    def test_validator_rejects_missing_structure(self):
        with pytest.raises(AssertionError):
            validate_dashboard_html("<html><body>no tables</body></html>")
