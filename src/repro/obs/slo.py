"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLO` states an objective over a window of traffic:

* **availability** — at least ``objective`` of finished requests end
  ``ok`` (errors = failed + timed out);
* **latency** — at least ``objective`` of requests finish within
  ``latency_threshold_s`` (measured against the windowed ``latency_s``
  histogram; the bucket that straddles the threshold counts as fast in
  proportion to the part of it below the threshold).

The alerting math is the standard SRE burn rate: with error budget
``1 - objective``,

    ``burn = error_rate / (1 - objective)``

so burn 1.0 spends the budget exactly at the objective's horizon, and
burn 14.4 on a 99.9% monthly SLO exhausts it in ~2 days.  One window
alone is a bad alert: a short window pages on noise, a long one pages
an hour late.  :class:`SLOMonitor` therefore evaluates **two** windows
per SLO — a fast one (default 5m) that must burn hot *and* a slow one
(default 1h) that confirms the burn is sustained — and fires only when
both exceed their thresholds; the alert resolves once the fast window
cools.  Both window lengths are injectable, so tests (and the smoke)
compress hours into milliseconds on a fake clock.

Every state change lands in the alert history
(:attr:`SLOMonitor.alerts`), with exemplar trace ids attached from the
:class:`FlightRecorder` — the bounded keeper of the slowest and failed
requests, which the dashboard links straight to their span trees.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.timeseries import MetricsScraper
from repro.testkit.clock import SYSTEM_CLOCK

__all__ = [
    "Alert",
    "BurnRatePolicy",
    "FlightRecorder",
    "SLO",
    "SLOMonitor",
]

#: Counter names the availability arithmetic reads (the service's own).
GOOD_COUNTER = "requests_completed"
BAD_COUNTERS = ("requests_failed", "requests_timed_out")


@dataclass(frozen=True)
class SLO:
    """One service-level objective.

    Attributes:
        name: identity in alerts and dashboards.
        objective: target good fraction in (0, 1), e.g. 0.95.
        latency_threshold_s: when set, this is a latency SLO —
            "objective of requests within threshold"; when None, an
            availability SLO over the ok/failed/timed-out counters.
        metric: the histogram series a latency SLO reads.
        description: one line for dashboards.
    """

    name: str
    objective: float
    latency_threshold_s: Optional[float] = None
    metric: str = "latency_s"
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if (self.latency_threshold_s is not None
                and self.latency_threshold_s <= 0):
            raise ValueError("latency_threshold_s must be positive")

    @property
    def budget(self) -> float:
        """The error budget, ``1 - objective``."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnRatePolicy:
    """The two-window alerting policy of one :class:`SLOMonitor`.

    Defaults follow the classic multiwindow page: fast 5 minutes at
    burn 14.4, slow 1 hour at burn 6.  Tests shrink the windows onto a
    fake clock; the math is window-length agnostic.
    """

    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    fast_burn_threshold: float = 14.4
    slow_burn_threshold: float = 6.0


@dataclass
class Alert:
    """One firing (or resolved) burn-rate alert."""

    slo: str
    fired_at_s: float
    fast_burn: float
    slow_burn: float
    resolved_at_s: Optional[float] = None
    exemplar_trace_ids: List[str] = field(default_factory=list)

    @property
    def firing(self) -> bool:
        """True while the alert has not resolved."""
        return self.resolved_at_s is None

    def to_json_dict(self) -> dict:
        """JSON form (dashboard, smoke report)."""
        return {"slo": self.slo, "firing": self.firing,
                "fired_at_s": round(self.fired_at_s, 3),
                "resolved_at_s": (None if self.resolved_at_s is None
                                  else round(self.resolved_at_s, 3)),
                "fast_burn": round(self.fast_burn, 3),
                "slow_burn": round(self.slow_burn, 3),
                "exemplar_trace_ids": list(self.exemplar_trace_ids)}


class FlightRecorder:
    """Bounded keeper of the most interesting requests' identities.

    Retains the *n* slowest and the *n* most recent failed requests
    (trace id, latency, status), thread-safe.  These are the exemplars
    an alert or a dashboard links back to full span trees — the
    "show me the request that did this" affordance.

    Args:
        n_slowest: slowest-requests bound (a min-heap; faster entries
            are evicted once full).
        n_failures: recent-failures ring bound.
    """

    def __init__(self, n_slowest: int = 16, n_failures: int = 16) -> None:
        """See class docstring."""
        if n_slowest < 1 or n_failures < 1:
            raise ValueError("bounds must be >= 1")
        self.n_slowest = n_slowest
        self.n_failures = n_failures
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._slowest: List[tuple] = []  # (latency, seq, record) min-heap
        self._failures: List[dict] = []

    def record(self, trace_id: Optional[str], latency_s: float,
               status: str, **detail) -> None:
        """Note one finished request (no-op without a trace id)."""
        if not trace_id:
            return
        entry = {"trace_id": str(trace_id),
                 "latency_s": float(latency_s), "status": str(status)}
        entry.update(detail)
        with self._lock:
            item = (float(latency_s), next(self._seq), entry)
            if len(self._slowest) < self.n_slowest:
                heapq.heappush(self._slowest, item)
            elif item > self._slowest[0]:
                heapq.heapreplace(self._slowest, item)
            if status != "ok":
                self._failures.append(entry)
                if len(self._failures) > self.n_failures:
                    del self._failures[0]

    def slowest(self) -> List[dict]:
        """The retained slowest requests, slowest first."""
        with self._lock:
            items = sorted(self._slowest, reverse=True)
        return [entry for _, _, entry in items]

    def failures(self) -> List[dict]:
        """The retained failed requests, most recent first."""
        with self._lock:
            return list(reversed(self._failures))

    def exemplars(self, n: int = 3) -> List[str]:
        """Up to *n* trace ids worth linking from an alert: recent
        failures first, then the slowest successes."""
        ids: List[str] = []
        for entry in self.failures() + self.slowest():
            if entry["trace_id"] not in ids:
                ids.append(entry["trace_id"])
            if len(ids) >= n:
                break
        return ids

    def to_json_dict(self) -> dict:
        """JSON form (the ``trace`` verb's ``flight`` section)."""
        return {"slowest": self.slowest(), "failures": self.failures()}


class SLOMonitor:
    """Evaluates SLO burn rates against a scraper's windows.

    Args:
        scraper: the :class:`~repro.obs.timeseries.MetricsScraper`
            holding the sampled history.
        slos: the objectives to watch.
        policy: the two-window burn thresholds.
        flight: optional recorder whose exemplars firing alerts copy.
        clock: time source for alert timestamps.
    """

    def __init__(self, scraper: MetricsScraper, slos: List[SLO],
                 policy: Optional[BurnRatePolicy] = None,
                 flight: Optional[FlightRecorder] = None,
                 clock=SYSTEM_CLOCK) -> None:
        """See class docstring."""
        self.scraper = scraper
        self.slos = list(slos)
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError("SLO names must be unique")
        self.policy = policy or BurnRatePolicy()
        self.flight = flight
        self.clock = clock
        self.alerts: List[Alert] = []
        self._firing: Dict[str, Alert] = {}

    # -- burn arithmetic ----------------------------------------------

    def error_rate(self, slo: SLO, window_s: float) -> Optional[float]:
        """The fraction of the window's traffic that violated *slo*
        (None when the window saw no traffic).

        A latency SLO's threshold rarely falls on a bucket bound; the
        bucket ``(lower, le]`` holding it counts
        ``(threshold - lower) / (le - lower)`` of its requests as fast,
        as if they were spread evenly across it.  The overflow bucket
        counts as slow.
        """
        if slo.latency_threshold_s is None:
            bad = 0.0
            for name in BAD_COUNTERS:
                bad += self.scraper.delta(name, window_s) or 0.0
            good = self.scraper.delta(GOOD_COUNTER, window_s) or 0.0
            total = good + bad
            return bad / total if total > 0 else None
        hist = self.scraper.windowed_histogram(slo.metric, window_s)
        if not hist:
            return None
        threshold = slo.latency_threshold_s
        total = 0
        fast_enough = 0.0
        lower = 0.0
        for bucket in hist.get("buckets") or []:
            count = int(bucket.get("count", 0))
            total += count
            le = bucket.get("le")
            if le is None:  # overflow: no upper bound to interpolate to
                continue
            upper = float(le)
            if upper <= threshold:
                fast_enough += count
            elif lower < threshold:  # straddles: linear within bucket
                fast_enough += count * (threshold - lower) / (upper - lower)
            lower = upper
        if total == 0:
            return None
        return 1.0 - fast_enough / total

    def burn_rate(self, slo: SLO, window_s: float) -> Optional[float]:
        """``error_rate / budget`` over *window_s* (None: no traffic)."""
        rate = self.error_rate(slo, window_s)
        return None if rate is None else rate / slo.budget

    # -- the evaluation step ------------------------------------------

    def evaluate(self) -> List[Alert]:
        """One evaluation pass; returns alerts that changed state.

        An SLO fires when the fast **and** slow windows both exceed
        their burn thresholds; it resolves when the fast window drops
        back under.  Windows without traffic keep the previous state —
        silence is not evidence of health or of burn.
        """
        policy = self.policy
        changed: List[Alert] = []
        now = self.clock.monotonic()
        for slo in self.slos:
            fast = self.burn_rate(slo, policy.fast_window_s)
            slow = self.burn_rate(slo, policy.slow_window_s)
            current = self._firing.get(slo.name)
            if current is None:
                if (fast is not None and slow is not None
                        and fast > policy.fast_burn_threshold
                        and slow > policy.slow_burn_threshold):
                    alert = Alert(
                        slo=slo.name, fired_at_s=now,
                        fast_burn=fast, slow_burn=slow,
                        exemplar_trace_ids=(self.flight.exemplars()
                                            if self.flight else []))
                    self._firing[slo.name] = alert
                    self.alerts.append(alert)
                    changed.append(alert)
            else:
                current.fast_burn = max(current.fast_burn, fast or 0.0)
                if (fast is not None
                        and fast <= policy.fast_burn_threshold):
                    current.resolved_at_s = now
                    del self._firing[slo.name]
                    changed.append(current)
        return changed

    @property
    def firing(self) -> List[Alert]:
        """The currently firing alerts."""
        return list(self._firing.values())

    def state(self) -> dict:
        """Dashboard form: per-SLO burns plus the alert history."""
        policy = self.policy
        slos = []
        for slo in self.slos:
            fast = self.burn_rate(slo, policy.fast_window_s)
            slow = self.burn_rate(slo, policy.slow_window_s)
            slos.append({
                "name": slo.name,
                "objective": slo.objective,
                "kind": ("latency" if slo.latency_threshold_s is not None
                         else "availability"),
                "latency_threshold_s": slo.latency_threshold_s,
                "description": slo.description,
                "fast_burn": fast, "slow_burn": slow,
                "firing": slo.name in self._firing,
            })
        return {"slos": slos,
                "policy": {
                    "fast_window_s": policy.fast_window_s,
                    "slow_window_s": policy.slow_window_s,
                    "fast_burn_threshold": policy.fast_burn_threshold,
                    "slow_burn_threshold": policy.slow_burn_threshold},
                "alerts": [a.to_json_dict() for a in self.alerts]}
