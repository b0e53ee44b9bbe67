"""SLO burn-rate alerting and the flight recorder (``repro.obs.slo``)."""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    SLO,
    BurnRatePolicy,
    FlightRecorder,
    SLOMonitor,
)
from repro.obs.timeseries import MetricsScraper
from repro.testkit.clock import FakeClock

from tests.test_obs_timeseries import hist, snap

#: Compressed two-window policy: 5s fast, 60s slow.
POLICY = BurnRatePolicy(fast_window_s=5.0, slow_window_s=60.0)


@pytest.fixture
def clock():
    return FakeClock(start=0.0)


@pytest.fixture
def scraper(clock):
    return MetricsScraper(interval_s=1.0, capacity=128, clock=clock)


def latency_monitor(scraper, clock, flight=None, objective=0.95,
                    threshold=0.1):
    return SLOMonitor(
        scraper,
        slos=[SLO(name="latency", objective=objective,
                  latency_threshold_s=threshold)],
        policy=POLICY, flight=flight, clock=clock)


class TestSLOValidation:
    def test_objective_must_be_fractional(self):
        with pytest.raises(ValueError):
            SLO(name="bad", objective=1.0)
        with pytest.raises(ValueError):
            SLO(name="bad", objective=0.0)

    def test_latency_threshold_positive(self):
        with pytest.raises(ValueError):
            SLO(name="bad", objective=0.99, latency_threshold_s=0.0)

    def test_duplicate_slo_names_rejected(self, scraper, clock):
        slos = [SLO(name="x", objective=0.9), SLO(name="x", objective=0.5)]
        with pytest.raises(ValueError):
            SLOMonitor(scraper, slos=slos, clock=clock)

    def test_budget(self):
        assert SLO(name="a", objective=0.95).budget == pytest.approx(0.05)


class TestLatencyBurn:
    def test_fires_under_injected_latency_then_resolves(self, scraper,
                                                        clock):
        monitor = latency_monitor(scraper, clock)
        # t=0: baseline.
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 0, 0])}))
        clock.advance(1.0)
        # t=1: every request breached the 0.1s threshold -> error rate
        # 1.0, burn 1.0/0.05 = 20 over both windows.
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 20, 0])}))
        changed = monitor.evaluate()
        assert [a.slo for a in changed] == ["latency"]
        assert changed[0].firing
        assert changed[0].fast_burn == pytest.approx(20.0)
        assert monitor.firing
        # Fast traffic rolls the slow burst out of the 5s fast window.
        clock.advance(6.0)
        scraper.ingest(snap(histograms={"latency_s": hist([50, 0, 20, 0])}))
        resolved = monitor.evaluate()
        assert resolved and not resolved[0].firing
        assert not monitor.firing
        assert resolved[0].resolved_at_s == pytest.approx(7.0)

    def test_needs_both_windows_hot(self, scraper, clock):
        # The slow window saw mostly-good history: slow burn stays low,
        # so a hot fast window alone must not page.
        monitor = latency_monitor(scraper, clock)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 0, 0])}))
        clock.advance(50.0)
        scraper.ingest(snap(histograms={"latency_s": hist([980, 0, 0, 0])}))
        clock.advance(4.0)
        scraper.ingest(snap(histograms={"latency_s": hist([980, 0, 20, 0])}))
        assert monitor.evaluate() == []
        assert not monitor.firing

    def test_no_traffic_keeps_previous_state(self, scraper, clock):
        monitor = latency_monitor(scraper, clock)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 0, 0])}))
        clock.advance(1.0)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 9, 0])}))
        assert monitor.evaluate()
        # Silence: identical snapshot, nothing in the window.
        clock.advance(6.0)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 9, 0])}))
        assert monitor.evaluate() == []
        assert monitor.firing  # silence is not evidence of health

    def test_peak_fast_burn_tracked_while_firing(self, scraper, clock):
        monitor = latency_monitor(scraper, clock)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 0, 0])}))
        clock.advance(1.0)
        scraper.ingest(snap(histograms={"latency_s": hist([5, 0, 15, 0])}))
        alert = monitor.evaluate()[0]
        first_burn = alert.fast_burn
        clock.advance(1.0)
        scraper.ingest(snap(histograms={"latency_s": hist([5, 0, 40, 0])}))
        monitor.evaluate()
        assert alert.fast_burn > first_burn


class TestThresholdBetweenBounds:
    """A threshold inside a bucket is judged at its own value, not at
    the bucket bound below it."""

    @staticmethod
    def _window(scraper, clock, counts, bounds):
        scraper.ingest(snap(histograms={
            "latency_s": hist([0] * len(counts), bounds=bounds)}))
        clock.advance(1.0)
        scraper.ingest(snap(histograms={
            "latency_s": hist(counts, bounds=bounds)}))

    def test_straddling_bucket_is_interpolated(self, scraper, clock):
        from repro.obs.registry import latency_bounds

        bounds = latency_bounds()
        counts = [0] * (len(bounds) + 1)
        counts[bounds.index(0.0512)] = 100  # all in (25.6, 51.2] ms
        self._window(scraper, clock, counts, bounds)
        monitor = latency_monitor(scraper, clock, threshold=0.05)
        rate = monitor.error_rate(monitor.slos[0], 5.0)
        # (51.2 - 50) / (51.2 - 25.6) of the bucket lies past 50 ms.
        assert rate == pytest.approx(1.2 / 25.6)
        assert rate == pytest.approx(0.047, abs=5e-4)

    def test_threshold_in_first_bucket_interpolates_from_zero(
            self, scraper, clock):
        self._window(scraper, clock, [10, 0, 0, 0], (0.01, 0.1, 1.0))
        monitor = latency_monitor(scraper, clock, threshold=0.004)
        assert monitor.error_rate(monitor.slos[0], 5.0) \
            == pytest.approx(0.6)

    def test_overflow_bucket_counts_as_slow(self, scraper, clock):
        self._window(scraper, clock, [1, 0, 0, 3], (0.01, 0.1, 1.0))
        monitor = latency_monitor(scraper, clock, threshold=5.0)
        assert monitor.error_rate(monitor.slos[0], 5.0) \
            == pytest.approx(0.75)


class TestAvailabilityBurn:
    def test_fires_on_failed_fraction(self, scraper, clock):
        monitor = SLOMonitor(
            scraper, slos=[SLO(name="avail", objective=0.95)],
            policy=POLICY, clock=clock)
        scraper.ingest(snap(counters={"requests_completed": 0,
                                      "requests_failed": 0}))
        clock.advance(1.0)
        # 30 of 40 finished badly: error rate 0.75, burn 0.75/0.05 = 15
        # over both windows -> past the 14.4 fast and 6.0 slow bars.
        scraper.ingest(snap(counters={"requests_completed": 10,
                                      "requests_failed": 25,
                                      "requests_timed_out": 5}))
        alert = monitor.evaluate()[0]
        assert alert.firing
        assert alert.fast_burn == pytest.approx(15.0)

    def test_error_rate_none_without_traffic(self, scraper, clock):
        monitor = SLOMonitor(
            scraper, slos=[SLO(name="avail", objective=0.9)],
            policy=POLICY, clock=clock)
        scraper.ingest(snap(counters={"requests_completed": 5}))
        clock.advance(1.0)
        scraper.ingest(snap(counters={"requests_completed": 5}))
        assert monitor.burn_rate(monitor.slos[0], 5.0) is None


class TestExemplars:
    def test_alert_copies_flight_exemplars(self, scraper, clock):
        flight = FlightRecorder()
        flight.record("aaaa", 0.5, "ok")
        flight.record("bbbb", 0.2, "failed")
        monitor = latency_monitor(scraper, clock, flight=flight)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 0, 0])}))
        clock.advance(1.0)
        scraper.ingest(snap(histograms={"latency_s": hist([0, 0, 9, 0])}))
        alert = monitor.evaluate()[0]
        # Failures outrank slow successes in the exemplar list.
        assert alert.exemplar_trace_ids[0] == "bbbb"
        assert "aaaa" in alert.exemplar_trace_ids
        assert alert.to_json_dict()["exemplar_trace_ids"] == \
            alert.exemplar_trace_ids


class TestFlightRecorder:
    def test_keeps_n_slowest(self):
        flight = FlightRecorder(n_slowest=3)
        for i, latency in enumerate([0.1, 0.9, 0.2, 0.8, 0.3]):
            flight.record(f"t{i}", latency, "ok")
        assert [e["latency_s"] for e in flight.slowest()] == [0.9, 0.8, 0.3]

    def test_failures_ring_is_bounded_and_recent_first(self):
        flight = FlightRecorder(n_failures=2)
        for i in range(4):
            flight.record(f"f{i}", 0.01, "failed")
        assert [e["trace_id"] for e in flight.failures()] == ["f3", "f2"]

    def test_untraced_requests_are_ignored(self):
        flight = FlightRecorder()
        flight.record(None, 9.9, "failed")
        flight.record("", 9.9, "failed")
        assert flight.to_json_dict() == {"slowest": [], "failures": []}

    def test_detail_fields_carried(self):
        flight = FlightRecorder()
        flight.record("abcd", 0.1, "ok", source="cache", node="node-1")
        assert flight.slowest()[0]["node"] == "node-1"

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(n_slowest=0)


class TestMonitorState:
    def test_state_shape_for_dashboard(self, scraper, clock):
        monitor = latency_monitor(scraper, clock)
        state = monitor.state()
        assert state["slos"][0]["kind"] == "latency"
        assert state["policy"]["fast_window_s"] == 5.0
        assert state["alerts"] == []
