"""The end-to-end observability smoke (``repro.obs.smoke``).

One reduced run of the real thing — service, traffic, scrapes, SLO
evaluation, trace export, dashboard — then assertions over the report
and the artefacts it wrote.  This is the tier-1 stand-in for the CI
``make obs-smoke`` target.
"""

import json

import pytest

from repro.obs.smoke import ObsSmokeConfig, run_obs_smoke
from repro.obs.tracer import get_tracer


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs-smoke")
    cfg = ObsSmokeConfig(out_dir=out, n_slow=8, n_fast=12,
                         slow_sleep_s=0.15, settle_s=0.7)
    result = run_obs_smoke(cfg)
    result["_out"] = out
    return result


class TestObsSmoke:
    def test_every_check_passes(self, report):
        assert report["passed"], report["checks"]

    def test_windowed_p95_diverges_from_cumulative(self, report):
        assert report["windowed_p95_s"] < report["cumulative_p95_s"]

    def test_stitched_multi_process_traces(self, report):
        # One service.submit -> worker.execute tree per request, the
        # two spans on the service's and a worker's lane.
        assert report["n_stitched_traces"] == report["config"]["n_requests"]
        assert report["n_process_lanes"] >= 2
        assert all(t["n_lanes"] == 2 for t in report["stitched_traces"])

    def test_alert_fired_then_resolved(self, report):
        alerts = report["alerts"]
        assert any(a["exemplar_trace_ids"] for a in alerts)
        assert alerts and not alerts[-1]["firing"]

    def test_artefacts_written_and_parse(self, report):
        out = report["_out"]
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["passed"]
        assert (out / "dashboard.html").read_text().startswith("<!DOCTYPE")

    def test_previous_tracer_restored(self, report):
        # The smoke must not leak its recording tracer into the
        # process (tier-1 tests run after it in the same process).
        assert get_tracer().enabled is False
