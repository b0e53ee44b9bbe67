"""Windowed time-series over registry snapshots.

Every metric in :mod:`repro.obs.registry` is cumulative-since-start —
the right primitive for cheap lock-free writes, and the wrong shape
for every operational question ("what is the p95 *now*?", "how many
requests per second *currently*?").  A cold warm-up's slow requests
sit in the cumulative ``latency_s`` histogram forever, so a p95 read
from it never recovers from one bad minute.

:class:`MetricsScraper` fixes this at read time, the way Prometheus
does: snapshot the registry on a fixed interval into a bounded ring
buffer of :class:`Sample`\\ s, then answer windowed questions by
subtracting samples —

* :meth:`MetricsScraper.delta` / :meth:`MetricsScraper.rate` — counter
  increase (and per-second rate) over the last window;
* :meth:`MetricsScraper.windowed_histogram` /
  :meth:`MetricsScraper.windowed_percentile` — bucket-count deltas of a
  histogram series, i.e. the distribution of *only* the observations
  that landed inside the window;
* :meth:`MetricsScraper.gauge_series` /
  :meth:`MetricsScraper.rate_series` — point lists for sparklines.

The scraper is transport-agnostic: :meth:`scrape` reads an in-process
:class:`~repro.obs.registry.MetricsRegistry`, and :meth:`ingest`
accepts any snapshot dict — what a poller gets back from a remote
service's ``metrics`` verb (``python -m repro obs top``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.testkit.clock import SYSTEM_CLOCK

__all__ = [
    "MetricsScraper",
    "Sample",
    "histogram_delta",
    "percentile_of",
]


@dataclass(frozen=True)
class Sample:
    """One snapshot of a registry, stamped with scrape time.

    Attributes:
        t_s: the scraper clock's ``monotonic()`` at snapshot time.
        counters / gauges / histograms: the snapshot sections
            (histograms in :meth:`~repro.obs.registry.Histogram
            .to_json_dict` form).
    """

    t_s: float
    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, dict]


def histogram_delta(current: Optional[dict],
                    previous: Optional[dict]) -> Optional[dict]:
    """The histogram of observations between two cumulative snapshots.

    Both arguments are histogram JSON dicts (``to_json_dict`` shape);
    returns the same shape with per-bucket count deltas and windowed
    ``n``/``mean``, or None when *current* is missing.  A reset or a
    bucket-layout change (negative delta, mismatched bounds) falls
    back to *current* unchanged — over-reporting beats nonsense.
    """
    if not isinstance(current, dict):
        return None
    if not isinstance(previous, dict):
        return _shape(current)
    cur_buckets = current.get("buckets") or []
    prev_buckets = previous.get("buckets") or []
    if ([b.get("le") for b in cur_buckets]
            != [b.get("le") for b in prev_buckets]):
        return _shape(current)
    deltas = []
    for cur, prev in zip(cur_buckets, prev_buckets):
        diff = int(cur.get("count", 0)) - int(prev.get("count", 0))
        if diff < 0:
            return _shape(current)
        deltas.append({"le": cur.get("le"), "count": diff})
    n = sum(b["count"] for b in deltas)
    cur_n, prev_n = int(current.get("n", 0)), int(previous.get("n", 0))
    cur_mean = current.get("mean") or 0.0
    prev_mean = previous.get("mean") or 0.0
    total = cur_n * cur_mean - prev_n * prev_mean
    out = {"n": n, "mean": (total / n) if n else None,
           "max": current.get("max") if n else None,
           "buckets": deltas}
    for p in (0.50, 0.95, 0.99):
        out[f"p{int(p * 100)}"] = percentile_of(out, p)
    return out


def _shape(hist: dict) -> dict:
    """A defensive copy of *hist* restricted to the delta shape."""
    return {"n": hist.get("n", 0), "mean": hist.get("mean"),
            "max": hist.get("max"),
            "p50": hist.get("p50"), "p95": hist.get("p95"),
            "p99": hist.get("p99"),
            "buckets": [dict(b) for b in hist.get("buckets") or []]}


def percentile_of(hist: Optional[dict], p: float) -> Optional[float]:
    """Percentile of a histogram JSON dict (bucket upper bound, like
    :meth:`~repro.obs.registry.Histogram.percentile`); None when empty.

    The overflow bucket (``le: null``) reports the recorded ``max`` so
    a pathological tail is never under-reported.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if not isinstance(hist, dict):
        return None
    buckets = hist.get("buckets") or []
    n = sum(int(b.get("count", 0)) for b in buckets)
    if n == 0:
        return None
    rank = max(1, int(p * n + 0.5))
    cumulative = 0
    for bucket in buckets:
        cumulative += int(bucket.get("count", 0))
        if cumulative >= rank:
            le = bucket.get("le")
            return float(le) if le is not None else hist.get("max")
    return hist.get("max")


class MetricsScraper:
    """Bounded ring buffer of registry snapshots with windowed reads.

    Args:
        interval_s: the nominal scrape period; :meth:`run_once` and the
            windowed reads use it as the default window granularity.
        capacity: ring-buffer bound — ``capacity * interval_s`` seconds
            of history are retained, older samples fall off.
        clock: time source (tests inject a
            :class:`~repro.testkit.clock.FakeClock`).
    """

    def __init__(self, interval_s: float = 1.0, capacity: int = 600,
                 clock=SYSTEM_CLOCK) -> None:
        """See class docstring."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (windows need deltas)")
        self.interval_s = interval_s
        self.capacity = capacity
        self.clock = clock
        self._samples: Deque[Sample] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    # -- feeding -------------------------------------------------------

    def ingest(self, snapshot: dict, t_s: Optional[float] = None) -> Sample:
        """Append one snapshot dict (local or fetched from a remote
        service's ``metrics`` verb); returns the stored :class:`Sample`."""
        sample = Sample(
            t_s=self.clock.monotonic() if t_s is None else float(t_s),
            counters=dict(snapshot.get("counters") or {}),
            gauges=dict(snapshot.get("gauges") or {}),
            histograms={k: dict(v) for k, v in
                        (snapshot.get("histograms") or {}).items()})
        with self._lock:
            self._samples.append(sample)
        return sample

    def scrape(self, registry: MetricsRegistry) -> Sample:
        """Snapshot an in-process registry (one :meth:`ingest`)."""
        return self.ingest(registry.snapshot())

    # -- reading -------------------------------------------------------

    @property
    def samples(self) -> List[Sample]:
        """Every retained sample, oldest first."""
        with self._lock:
            return list(self._samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def _window_pair(self, window_s: Optional[float]
                     ) -> Optional[Tuple[Sample, Sample]]:
        """The newest sample plus the newest one older than the window
        start (or the oldest retained when the window predates
        history); None with fewer than two samples."""
        with self._lock:
            samples = list(self._samples)
        if len(samples) < 2:
            return None
        newest = samples[-1]
        window = self.interval_s if window_s is None else float(window_s)
        cutoff = newest.t_s - window
        base = samples[0]
        for sample in samples[:-1]:
            if sample.t_s <= cutoff:
                base = sample
            else:
                break
        if base is newest:
            base = samples[-2]
        return base, newest

    def delta(self, counter: str,
              window_s: Optional[float] = None) -> Optional[float]:
        """Counter increase over the last window; None without two
        samples.  A reset (decrease) clamps to the newest value."""
        pair = self._window_pair(window_s)
        if pair is None:
            return None
        base, newest = pair
        now = float(newest.counters.get(counter, 0.0))
        then = float(base.counters.get(counter, 0.0))
        return now - then if now >= then else now

    def rate(self, counter: str,
             window_s: Optional[float] = None) -> Optional[float]:
        """Per-second counter rate over the last window."""
        pair = self._window_pair(window_s)
        if pair is None:
            return None
        base, newest = pair
        span = newest.t_s - base.t_s
        if span <= 0:
            return None
        increase = self.delta(counter, window_s)
        return None if increase is None else increase / span

    def windowed_histogram(self, name: str,
                           window_s: Optional[float] = None
                           ) -> Optional[dict]:
        """Bucket-delta histogram of series *name* over the window."""
        pair = self._window_pair(window_s)
        if pair is None:
            return None
        base, newest = pair
        return histogram_delta(newest.histograms.get(name),
                               base.histograms.get(name))

    def windowed_percentile(self, name: str, p: float,
                            window_s: Optional[float] = None
                            ) -> Optional[float]:
        """Percentile of *name* over the window (None when no
        observations landed inside it)."""
        return percentile_of(self.windowed_histogram(name, window_s), p)

    def gauge_series(self, name: str,
                     window_s: Optional[float] = None
                     ) -> List[Tuple[float, float]]:
        """``(t_s, value)`` points of gauge *name* inside the window."""
        samples = self.samples
        if not samples:
            return []
        cutoff = (samples[-1].t_s - float(window_s)
                  if window_s is not None else float("-inf"))
        return [(s.t_s, float(s.gauges[name])) for s in samples
                if s.t_s >= cutoff and name in s.gauges]

    def rate_series(self, counter: str,
                    window_s: Optional[float] = None
                    ) -> List[Tuple[float, float]]:
        """Per-interval ``(t_s, rate)`` points of *counter* — the
        sparkline form of :meth:`rate`."""
        samples = self.samples
        if len(samples) < 2:
            return []
        cutoff = (samples[-1].t_s - float(window_s)
                  if window_s is not None else float("-inf"))
        points: List[Tuple[float, float]] = []
        for prev, cur in zip(samples, samples[1:]):
            if cur.t_s < cutoff:
                continue
            span = cur.t_s - prev.t_s
            if span <= 0:
                continue
            now = float(cur.counters.get(counter, 0.0))
            then = float(prev.counters.get(counter, 0.0))
            increase = now - then if now >= then else now
            points.append((cur.t_s, increase / span))
        return points

    async def run(self, registry: MetricsRegistry) -> None:
        """Scrape *registry* forever on the interval (cancellable)."""
        while True:
            await self.clock.sleep(self.interval_s)
            self.scrape(registry)
