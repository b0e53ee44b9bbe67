"""Vectorized batch dispatch in the service worker tier.

``execute_batch`` must dispatch same-trace request groups — same
``(cpu, workload, seed, n_cores)`` — through one
:func:`repro.core.batchsim.simulate_sweep` call with payloads
bit-identical to the per-request path, fall back to per-request
isolation when a group fails, and leave the fault-injection hooks on
the individual path.  The integration tests drive the whole service
with ``share_traces`` on and check the store's lifecycle brackets the
run.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.service.request import PRIORITY_BULK, SimRequest
from repro.service.server import ServiceConfig, SimulationService
from repro.service.workers import execute_batch, execute_request
from repro.workloads.tracestore import ENV_VAR


def _req(**overrides) -> dict:
    base = {"cpu": "C", "workload": "557.xz", "strategy": "fV",
            "voltage_offset": -0.097, "seed": 0, "n_cores": 1}
    base.update(overrides)
    return base


class TestExecuteBatchGrouping:
    def test_group_payloads_match_per_request_path(self):
        requests = [
            _req(),
            _req(voltage_offset=-0.08),
            _req(strategy="e"),
            _req(strategy="V"),
        ]
        outcomes = execute_batch(requests)
        for req, outcome in zip(requests, outcomes):
            reference = execute_request(req)
            assert outcome["status"] == "ok", outcome["error"]
            assert outcome["payload"] == reference["payload"]
            assert outcome["vectorized"] is True
            assert outcome["group_width"] == len(requests)

    def test_different_seeds_split_groups(self):
        outcomes = execute_batch([_req(seed=0), _req(seed=1)])
        assert all(o["status"] == "ok" for o in outcomes)
        assert all(o["group_width"] == 1 for o in outcomes)
        # Different trace seeds really produce different answers.
        assert outcomes[0]["payload"] != outcomes[1]["payload"]

    def test_order_is_preserved_across_groups(self):
        requests = [_req(seed=0), _req(seed=1), _req(seed=0,
                                                     voltage_offset=-0.05)]
        outcomes = execute_batch(requests)
        for req, outcome in zip(requests, outcomes):
            payload = outcome["payload"]
            assert payload["voltage_offset"] == req["voltage_offset"]

    def test_hooks_stay_on_the_per_request_path(self, tmp_path):
        outcomes = execute_batch([
            _req(workload="__sleep__:0.01"),
            _req(),
        ])
        assert outcomes[0]["status"] == "ok"
        assert "vectorized" not in outcomes[0]
        assert outcomes[1]["vectorized"] is True

    def test_group_failure_falls_back_to_isolation(self, monkeypatch):
        # A sweep that fails on more than one config poisons the group
        # of the first and third requests; the fallback must answer
        # them one by one and fail only the bad (0 V) request, which
        # runs alone.
        import repro.core.suit as suit

        real_sweep = suit.simulate_sweep

        def poisoned(cpu, profile, trace, configs, **kwargs):
            if len(configs) > 1:
                raise RuntimeError("poisoned group")
            return real_sweep(cpu, profile, trace, configs, **kwargs)

        monkeypatch.setattr(suit, "simulate_sweep", poisoned)
        outcomes = execute_batch([_req(), _req(voltage_offset=0.0),
                                  _req(voltage_offset=-0.08)])
        assert outcomes[0]["status"] == "ok"
        assert "vectorized" not in outcomes[0]
        assert outcomes[1]["status"] == "failed"
        assert outcomes[1]["error"]
        assert outcomes[2]["status"] == "ok"
        assert "vectorized" not in outcomes[2]

    def test_invalid_request_fails_alone(self):
        # A 0 V request is not a point the simulator accepts: it takes
        # the per-request path and fails there, while its sibling is
        # still answered by a sweep.
        outcomes = execute_batch([_req(), _req(voltage_offset=0.0)])
        assert outcomes[0]["status"] == "ok"
        assert outcomes[0]["vectorized"] is True
        assert outcomes[0]["group_width"] == 1
        assert outcomes[1]["status"] == "failed"
        assert "voltage_offset" in outcomes[1]["error"]

    def test_malformed_request_does_not_poison_batch(self):
        outcomes = execute_batch([
            {"cpu": "C"},  # missing everything else
            _req(),
        ])
        assert outcomes[0]["status"] == "failed"
        assert outcomes[1]["status"] == "ok"

    def test_empty_batch(self):
        assert execute_batch([]) == []


class TestServiceShareTraces:
    @pytest.fixture(autouse=True)
    def no_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)

    def test_store_brackets_the_run(self):
        async def scenario():
            config = ServiceConfig(use_processes=False, n_shards=1,
                                   workers_per_shard=2, max_batch_size=8,
                                   batch_window_s=0.02,
                                   share_traces=True)
            service = SimulationService(config)
            await service.start()
            assert ENV_VAR in os.environ
            root = os.environ[ENV_VAR]
            requests = [SimRequest("C", "557.xz", strategy="fV",
                                   voltage_offset=-0.097 + 0.001 * i,
                                   priority=PRIORITY_BULK)
                        for i in range(6)]
            responses = await asyncio.gather(
                *[service.submit(q) for q in requests])
            await service.stop()
            return root, responses

        root, responses = asyncio.run(scenario())
        assert all(r.ok for r in responses)
        # Same workload/seed, six offsets: six distinct durations.
        durations = {r.payload["duration_s"] for r in responses}
        assert len(durations) == 6
        # stop() tore the store down: env cleared, directory gone.
        assert ENV_VAR not in os.environ
        assert not os.path.isdir(root)

    def test_share_traces_off_touches_no_env(self):
        async def scenario():
            async with SimulationService(ServiceConfig(
                    use_processes=False, n_shards=1,
                    workers_per_shard=1)) as service:
                response = await service.submit(SimRequest("C", "557.xz"))
            return response

        response = asyncio.run(scenario())
        assert response.ok
        assert ENV_VAR not in os.environ
