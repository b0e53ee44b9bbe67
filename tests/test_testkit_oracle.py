"""Tests for the differential oracle and the seeded chaos soak.

The oracle's whole job is the *degraded vs wrong* distinction: explicit
failures are tolerated under chaos, silently different ``ok`` payloads
never are.  These tests pin the canonical request set, each channel on
a clean stack, the wrong-answer detector itself (with a lying fake
service), and a deterministic thread-tier soak end to end.
"""

import asyncio
import copy

import pytest

from repro.service.request import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    SimRequest,
    SimResponse,
)
from repro.testkit.oracle import ChannelReport, DifferentialOracle
from repro.testkit.soak import ChaosSoak, SoakConfig

run = asyncio.run


class TestCanonicalRequests:
    def test_deterministic_for_seed(self):
        one = DifferentialOracle.canonical_requests(n=8, seed=3)
        two = DifferentialOracle.canonical_requests(n=8, seed=3)
        assert one == two

    def test_varies_with_seed(self):
        assert (DifferentialOracle.canonical_requests(n=8, seed=0)
                != DifferentialOracle.canonical_requests(n=8, seed=1))

    def test_requests_are_valid_and_varied(self):
        requests = DifferentialOracle.canonical_requests(n=8)
        for request in requests:
            request.validate()
        assert len({r.cpu for r in requests}) > 1
        assert len({r.workload for r in requests}) > 1

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DifferentialOracle.canonical_requests(n=0)

    def test_rejects_hook_workloads(self):
        bad = SimRequest(cpu="A", workload="__crash__", strategy="fV")
        with pytest.raises(ValueError):
            DifferentialOracle([bad])


class TestChannelReport:
    def test_buckets(self):
        report = ChannelReport("t")
        request = SimRequest(cpu="A", workload="557.xz", strategy="fV")
        report.record(request, {"a": 1}, {"a": 1})
        report.record(request, {"a": 1}, None, status=STATUS_FAILED)
        report.record(request, {"a": 1}, None, status=STATUS_TIMEOUT)
        report.record(request, {"a": 1}, {"a": 2})
        assert (report.checked, report.ok, report.degraded, report.wrong) \
            == (4, 1, 2, 1)
        assert len(report.mismatches) == 1
        assert report.mismatches[0]["request"] == request.to_dict()

    def test_mismatch_cap(self):
        report = ChannelReport("t")
        for _ in range(40):
            report.record(None, {"a": 1}, {"a": 2})
        assert report.wrong == 40
        assert len(report.mismatches) == ChannelReport._MISMATCH_CAP


class TestCleanChannels:
    """On a fault-free stack every channel must agree exactly."""

    def test_sweep_and_batch_match_scalar(self):
        oracle = DifferentialOracle(
            DifferentialOracle.canonical_requests(n=6))
        outcome = oracle.run_local(engine=False)
        assert outcome.passed
        for channel in outcome.channels:
            assert channel.checked == 6
            assert channel.ok == 6

    def test_reference_honours_deadline_and_imul_depth(self):
        plain = SimRequest("C", "557.xz")
        oracle = DifferentialOracle([
            SimRequest("C", "557.xz", deadline_us=5.0),
            SimRequest("C", "557.xz", imul_extra_cycles=3),
            plain])
        assert oracle.run_local(engine=False).wrong_total == 0
        short, deep, default = oracle.reference()
        assert short != default and deep != default

    def test_engine_channel_self_consistent(self):
        oracle = DifferentialOracle(
            DifferentialOracle.canonical_requests(n=2))
        report = oracle.check_engine()
        assert report.wrong == 0
        assert report.ok == 1

    def test_reference_is_cached(self):
        oracle = DifferentialOracle(
            DifferentialOracle.canonical_requests(n=2))
        assert oracle.reference() is oracle.reference()


class _LyingService:
    """A fake service: answers 'ok' but perturbs one field."""

    def __init__(self, reference, tamper_index):
        self._reference = reference
        self._tamper = tamper_index
        self._i = 0

    async def submit(self, request):
        payload = copy.deepcopy(self._reference[self._i])
        if self._i == self._tamper:
            key = sorted(payload)[0]
            payload[key] = "tampered"
        self._i += 1
        return SimResponse(request=request, status=STATUS_OK,
                           payload=payload)


class TestWrongAnswerDetection:
    def test_service_channel_flags_silent_corruption(self):
        oracle = DifferentialOracle(
            DifferentialOracle.canonical_requests(n=4))
        service = _LyingService(oracle.reference(), tamper_index=2)
        report = run(oracle.check_service(service))
        assert report.checked == 4
        assert report.wrong == 1
        assert report.ok == 3
        assert report.mismatches[0]["request"] \
            == oracle.requests[2].to_dict()


class TestChaosSoak:
    def test_fault_schedule_is_pure_function_of_seed(self):
        cfg = SoakConfig(seed=5)
        assert cfg.build_plan().to_json_dict() \
            == SoakConfig(seed=5).build_plan().to_json_dict()
        assert cfg.build_plan().to_json_dict() \
            != SoakConfig(seed=6).build_plan().to_json_dict()

    def test_zero_rates_drop_out_of_the_spec_set(self):
        cfg = SoakConfig(worker_kill_rate=0.0, shm_unlink_rate=0.0,
                         manifest_corrupt_rate=0.0, cache_corrupt_rate=0.5,
                         admission_reject_rate=0.0)
        sites = {spec.site for spec in cfg.fault_specs()}
        assert sites == {"cache.entry"}

    def test_thread_tier_soak_passes_with_zero_wrong_answers(self):
        cfg = SoakConfig(seed=13, passes=2, n_requests=4,
                         use_processes=False,
                         worker_kill_rate=0.0, shm_unlink_rate=0.0,
                         manifest_corrupt_rate=0.0,
                         cache_corrupt_rate=0.3,
                         admission_reject_rate=0.1,
                         horizon=2000, n_shards=1, workers_per_shard=2)
        result = run(ChaosSoak(cfg).run())
        assert result.passed
        assert result.passes == 2
        assert result.wrong_answers == 0
        report = result.to_json_dict()
        assert report["summary"]["injected"] > 0
        assert report["summary"]["wrong_answers"] == 0
        assert report["summary"]["recovered"] \
            == report["summary"]["injected"]
        assert report["fault_schedule"] == cfg.build_plan().to_json_dict()
        assert report["service_metrics"]["requests_submitted"] == 8

    def test_one_pass_crosses_the_cache_cap(self, monkeypatch):
        """The soak's cache is capped, so pruning runs under chaos."""
        import repro.runtime.cache as cache_module

        sites = []
        real_inject = cache_module.inject

        def spy(site, **ctx):
            sites.append(site)
            return real_inject(site, **ctx)

        monkeypatch.setattr(cache_module, "inject", spy)
        cfg = SoakConfig(seed=13, passes=1, n_requests=4,
                         use_processes=False, worker_kill_rate=0.0,
                         shm_unlink_rate=0.0, manifest_corrupt_rate=0.0,
                         cache_corrupt_rate=0.3, admission_reject_rate=0.0,
                         horizon=2000, n_shards=1, workers_per_shard=2)
        result = run(ChaosSoak(cfg).run())
        assert result.passed and result.wrong_answers == 0
        assert "cache.prune" in sites
