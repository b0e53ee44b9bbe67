"""The live-observability views: terminal ``top`` and HTML dashboard.

Both views render the same inputs — one or more
:class:`~repro.obs.timeseries.MetricsScraper`\\ s (one per scrape
target, usually one service), an optional
:class:`~repro.obs.slo.SLOMonitor` and the flight-recorder/trace
summaries — and both are stdlib-only, in the ``campaigns``
:class:`~repro.campaigns.report.ReportBuilder` tradition: no server,
no JavaScript, no external assets.  The HTML page is inline CSS plus
inline-SVG sparklines, so ``python -m repro obs dashboard`` writes one
self-contained file that renders from ``file://`` and archives next to
the trace JSON it links to.

``render_top`` is the text form ``python -m repro obs top`` reprints
on its poll interval (with ANSI home-and-clear when the terminal
supports it — no curses dependency, so it also works piped to a file).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.slo import SLOMonitor
from repro.obs.timeseries import MetricsScraper

__all__ = ["render_obs_dashboard", "render_top", "sparkline_svg"]

#: Okabe-Ito picks shared with the campaign reports.
SPARK_COLOR = "#0072B2"
FIRING_COLOR = "#D55E00"
OK_COLOR = "#009E73"

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 68rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { border: 1px solid #ddd; padding: 4px 8px; text-align: left; }
th { background: #f4f4f4; }
tr.firing td { background: #fdeee6; }
tr.resolved td { background: #eaf6f0; }
.meta { color: #555; font-size: 13px; }
code { background: #f4f4f4; padding: 1px 4px; border-radius: 3px; }
svg { background: #fcfcfc; border: 1px solid #eee;
      vertical-align: middle; }
.badge { display: inline-block; padding: 0 6px; border-radius: 3px;
         color: #fff; font-size: 12px; }
.badge.firing { background: #D55E00; } .badge.ok { background: #009E73; }
""".strip()


def _fmt(value, digits: int = 4) -> str:
    """Numeric cell text; em-dash for missing values."""
    if value is None:
        return "—"
    return f"{value:.{digits}g}"


def sparkline_svg(points: Sequence[float], width: int = 220,
                  height: int = 36, color: str = SPARK_COLOR,
                  title: str = "") -> str:
    """An inline-SVG sparkline of *points* (empty series render flat)."""
    values = [float(v) for v in points]
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg">']
    if title:
        parts.append(f"<title>{html.escape(title)}</title>")
    if values:
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        pad = 3.0
        step = (width - 2 * pad) / max(1, len(values) - 1)
        coords = []
        for i, value in enumerate(values):
            x = pad + i * step
            y = height - pad - (height - 2 * pad) * (value - lo) / span
            coords.append(f"{x:.1f},{y:.1f}")
        if len(coords) == 1:
            y = coords[0].split(",")[1]
            coords.append(f"{width - pad:.1f},{y}")
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" />')
        parts.append(
            f'<text x="{width - 4}" y="12" text-anchor="end" '
            f'font-size="10" fill="#555">{html.escape(_fmt(values[-1]))}'
            '</text>')
    parts.append("</svg>")
    return "".join(parts)


def _target_stats(scraper: MetricsScraper, window_s: float) -> dict:
    """The headline numbers of one scrape target."""
    newest = scraper.samples[-1] if len(scraper) else None
    cumulative = None
    if newest is not None:
        cumulative = (newest.histograms.get("latency_s") or {}).get("p95")
    return {
        "rps": scraper.rate("requests_submitted", window_s),
        "completed": scraper.delta("requests_completed", window_s),
        "failed": scraper.delta("requests_failed", window_s),
        "queue_depth": (newest.gauges.get("queue_depth")
                        if newest else None),
        "windowed_p95_s": scraper.windowed_percentile(
            "latency_s", 0.95, window_s),
        "cumulative_p95_s": cumulative,
        "rps_series": [v for _, v in
                       scraper.rate_series("requests_submitted")],
        "queue_series": [v for _, v in scraper.gauge_series("queue_depth")],
    }


# -- the text view -------------------------------------------------------


def render_top(scrapers: Dict[str, MetricsScraper],
               monitor: Optional[SLOMonitor] = None,
               window_s: float = 60.0) -> str:
    """The ``obs top`` screen as plain text (one frame)."""
    lines: List[str] = []
    header = (f"{'target':<12} {'rps':>8} {'done':>7} {'fail':>6} "
              f"{'queue':>6} {'win p95':>9} {'cum p95':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(scrapers):
        stats = _target_stats(scrapers[name], window_s)
        lines.append(
            f"{name:<12} {_fmt(stats['rps'], 3):>8} "
            f"{_fmt(stats['completed'], 3):>7} "
            f"{_fmt(stats['failed'], 3):>6} "
            f"{_fmt(stats['queue_depth'], 3):>6} "
            f"{_fmt(stats['windowed_p95_s'], 3):>9} "
            f"{_fmt(stats['cumulative_p95_s'], 3):>9}")
    if monitor is not None:
        lines.append("")
        state = monitor.state()
        for slo in state["slos"]:
            flag = "FIRING" if slo["firing"] else "ok"
            lines.append(
                f"slo {slo['name']:<24} [{flag:^6}] "
                f"fast burn {_fmt(slo['fast_burn'], 3)}  "
                f"slow burn {_fmt(slo['slow_burn'], 3)}")
    return "\n".join(lines)


# -- the HTML view -------------------------------------------------------


def render_obs_dashboard(scrapers: Dict[str, MetricsScraper],
                         monitor: Optional[SLOMonitor] = None,
                         flight: Optional[dict] = None,
                         trace_summary: Optional[dict] = None,
                         title: str = "repro observability",
                         window_s: float = 60.0) -> str:
    """The self-contained HTML dashboard (see module docstring).

    Args:
        scrapers: one scraper per target, keyed by display name.
        monitor: optional SLO monitor whose state becomes the SLO and
            alert tables.
        flight: optional flight-recorder dict
            (:meth:`~repro.obs.slo.FlightRecorder.to_json_dict`).
        trace_summary: optional dict describing the exported trace
            (``n_processes``, ``n_stitched_traces``, ``path``).
        title: page title.
        window_s: the window behind every rate/percentile column.
    """
    parts: List[str] = [
        "<!DOCTYPE html>", '<html lang="en">', "<head>",
        '<meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style>", "</head>", "<body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="meta">windowed over the last {window_s:g}s; '
        "cumulative columns shown for contrast — during a cold warm-up "
        "the two diverge, and only the windowed one recovers.</p>",
    ]

    parts.append("<h2>Targets</h2>")
    parts.append("<table><tr><th>target</th><th>req/s</th>"
                 "<th>completed</th><th>failed</th><th>queue</th>"
                 "<th>windowed p95 (s)</th><th>cumulative p95 (s)</th>"
                 "<th>req/s trend</th><th>queue trend</th></tr>")
    for name in sorted(scrapers):
        stats = _target_stats(scrapers[name], window_s)
        parts.append(
            "<tr>"
            f"<td><code>{html.escape(name)}</code></td>"
            f"<td>{_fmt(stats['rps'])}</td>"
            f"<td>{_fmt(stats['completed'])}</td>"
            f"<td>{_fmt(stats['failed'])}</td>"
            f"<td>{_fmt(stats['queue_depth'])}</td>"
            f"<td>{_fmt(stats['windowed_p95_s'])}</td>"
            f"<td>{_fmt(stats['cumulative_p95_s'])}</td>"
            f"<td>{sparkline_svg(stats['rps_series'], title=f'{name} req/s')}"
            "</td>"
            f"<td>{sparkline_svg(stats['queue_series'], color=OK_COLOR, title=f'{name} queue depth')}</td>"
            "</tr>")
    parts.append("</table>")

    if monitor is not None:
        state = monitor.state()
        parts.append("<h2>SLOs</h2>")
        parts.append(
            '<p class="meta">burn = error rate / error budget; an SLO '
            f"fires when the fast {state['policy']['fast_window_s']:g}s "
            f"window burns over "
            f"{state['policy']['fast_burn_threshold']:g}&times; and the "
            f"slow {state['policy']['slow_window_s']:g}s window over "
            f"{state['policy']['slow_burn_threshold']:g}&times;.</p>")
        parts.append("<table><tr><th>slo</th><th>kind</th>"
                     "<th>objective</th><th>fast burn</th>"
                     "<th>slow burn</th><th>state</th></tr>")
        for slo in state["slos"]:
            badge = ('<span class="badge firing">FIRING</span>'
                     if slo["firing"] else '<span class="badge ok">ok</span>')
            parts.append(
                f'<tr class="{"firing" if slo["firing"] else ""}">'
                f"<td><code>{html.escape(slo['name'])}</code></td>"
                f"<td>{html.escape(slo['kind'])}</td>"
                f"<td>{slo['objective']:g}</td>"
                f"<td>{_fmt(slo['fast_burn'])}</td>"
                f"<td>{_fmt(slo['slow_burn'])}</td>"
                f"<td>{badge}</td></tr>")
        parts.append("</table>")
        if state["alerts"]:
            parts.append("<h2>Alert history</h2>")
            parts.append("<table><tr><th>slo</th><th>fired at (s)</th>"
                         "<th>resolved at (s)</th><th>peak fast burn</th>"
                         "<th>exemplar traces</th></tr>")
            for alert in state["alerts"]:
                cls = "firing" if alert["firing"] else "resolved"
                exemplars = ", ".join(
                    f"<code>{html.escape(t)}</code>"
                    for t in alert["exemplar_trace_ids"]) or "—"
                parts.append(
                    f'<tr class="{cls}">'
                    f"<td><code>{html.escape(alert['slo'])}</code></td>"
                    f"<td>{_fmt(alert['fired_at_s'])}</td>"
                    f"<td>{_fmt(alert['resolved_at_s'])}</td>"
                    f"<td>{_fmt(alert['fast_burn'])}</td>"
                    f"<td>{exemplars}</td></tr>")
            parts.append("</table>")

    if flight:
        parts.append("<h2>Flight recorder</h2>")
        parts.append('<p class="meta">the slowest and failed requests '
                     "retained with their trace ids — look these up in "
                     "the exported Chrome trace.</p>")
        parts.append("<table><tr><th>trace id</th><th>status</th>"
                     "<th>latency (s)</th></tr>")
        rows = (flight.get("failures") or []) + (flight.get("slowest") or [])
        seen = set()
        for entry in rows:
            trace_id = entry.get("trace_id", "")
            if trace_id in seen:
                continue
            seen.add(trace_id)
            parts.append(
                "<tr>"
                f"<td><code>{html.escape(str(trace_id))}</code></td>"
                f"<td>{html.escape(str(entry.get('status', '?')))}</td>"
                f"<td>{_fmt(entry.get('latency_s'))}</td></tr>")
        parts.append("</table>")

    if trace_summary:
        parts.append("<h2>Distributed traces</h2>")
        detail = []
        if trace_summary.get("n_processes") is not None:
            detail.append(f"{trace_summary['n_processes']} "
                          "process lanes")
        if trace_summary.get("n_stitched_traces") is not None:
            detail.append(f"{trace_summary['n_stitched_traces']} stitched "
                          "traces")
        if trace_summary.get("path"):
            detail.append("exported to "
                          f"<code>{html.escape(str(trace_summary['path']))}"
                          "</code>")
        parts.append(f'<p class="meta">{"; ".join(detail)}.</p>')

    parts.append("</body></html>")
    return "\n".join(parts)
