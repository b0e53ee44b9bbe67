"""The operating point and its one evaluation path.

:class:`~repro.core.suit.OperatingPoint` names one question and
:func:`~repro.core.suit.evaluate` answers a list of them.  These tests
pin:

* validation: what the simulator rejects is rejected before any work;
* ``evaluate``: input order, one sweep per group of points sharing a
  trace and a deadline, and per-point results equal to a width-1
  evaluation;
* the codecs: a service request and a DSE job map onto the point;
* the names the benchmark's layer probes wrap: the service worker and
  the DSE evaluate through ``repro.core.suit.simulate_sweep`` and
  ``repro.core.suit.cached_trace``, and the worker encodes through
  ``repro.runtime.serialization.jsonify``, so the per-layer figures
  count them.
"""

from __future__ import annotations

import math

import pytest

import repro.core.suit as suit
from repro.core.suit import OperatingPoint, evaluate
from repro.dse import Genome, LocalEvalBackend, SimJob, canned_search
from repro.runtime import serialization
from repro.runtime.serialization import jsonify
from repro.service.request import SimRequest
from repro.service.workers import execute_batch


def _point(**overrides) -> OperatingPoint:
    fields = dict(cpu="C", workload="557.xz")
    fields.update(overrides)
    return OperatingPoint(**fields)


class TestValidate:
    def test_defaults_are_valid(self):
        _point().validate()

    @pytest.mark.parametrize("overrides", [
        {"cpu": "Z"},
        {"cpu": None},
        {"workload": ""},
        {"strategy": "fVe"},
        {"voltage_offset": 0.0},
        {"voltage_offset": 0.05},
        {"strategy": "e", "voltage_offset": 0.0},
        {"voltage_offset": math.nan},
        {"voltage_offset": -math.inf},
        {"voltage_offset": "deep"},
        {"seed": -1},
        {"n_cores": 0},
        {"n_cores": 9},
        {"cpu": "i5", "n_cores": 5},
        {"deadline_us": 0.0},
        {"deadline_us": math.inf},
        {"deadline_us": True},
        {"imul_extra_cycles": -1},
        {"imul_extra_cycles": 1.0},
        {"imul_extra_cycles": True},
        {"cpu": "B", "strategy": "fV"},
        {"cpu": "B", "strategy": "V"},
    ])
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            _point(**overrides).validate()

    def test_evaluate_validates_before_any_sweep(self, monkeypatch):
        calls = []
        monkeypatch.setattr(suit, "simulate_sweep",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="voltage_offset"):
            evaluate([_point(), _point(voltage_offset=0.0)])
        assert calls == []


class TestEvaluate:
    def test_empty(self):
        assert evaluate([]) == []

    def test_groups_share_one_sweep_and_keep_input_order(self, monkeypatch):
        widths = []
        real_sweep = suit.simulate_sweep

        def counting(cpu, profile, trace, configs, **kwargs):
            widths.append(len(configs))
            return real_sweep(cpu, profile, trace, configs, **kwargs)

        points = [_point(), _point(seed=1), _point(strategy="V"),
                  _point(deadline_us=5.0), _point(strategy="e"),
                  _point(imul_extra_cycles=3)]
        monkeypatch.setattr(suit, "simulate_sweep", counting)
        grouped = evaluate(points)
        # seed 0 without a deadline: points 0, 2, 4 and 5 share a sweep.
        assert widths == [4, 1, 1]
        singles = [evaluate([point])[0] for point in points]
        assert jsonify(grouped) == jsonify(singles)
        assert [r.strategy for r in grouped] == \
            [p.strategy for p in points]

    def test_identity_fields_change_the_answer(self):
        base, short, deep, bare = evaluate([
            _point(), _point(deadline_us=5.0), _point(imul_extra_cycles=3),
            _point(imul_extra_cycles=0)])
        assert short.duration_s != base.duration_s
        assert deep.duration_s > base.duration_s > bare.duration_s

    def test_e_ignores_the_imul_depth(self):
        plain, deep = evaluate([_point(strategy="e"),
                                _point(strategy="e", imul_extra_cycles=4)])
        assert jsonify(plain) == jsonify(deep)

    def test_width_one_matches_run_profile(self):
        from repro.workloads import resolve_profile

        system = suit.SuitSystem.for_cpu("A", strategy_name="V",
                                         voltage_offset=-0.08, seed=2,
                                         n_cores=2)
        reference = system.run_profile(resolve_profile("557.xz"))
        [result] = evaluate([_point(cpu="A", strategy="V",
                                    voltage_offset=-0.08, seed=2,
                                    n_cores=2)])
        assert jsonify(result) == jsonify(reference)


class TestCodecs:
    def test_request_point(self):
        request = SimRequest("A", "nginx", strategy="f",
                             voltage_offset=-0.07, seed=9, n_cores=2,
                             deadline_us=50.0, imul_extra_cycles=3)
        assert request.point == OperatingPoint(
            "A", "nginx", strategy="f", voltage_offset=-0.07, seed=9,
            n_cores=2, deadline_us=50.0, imul_extra_cycles=3)

    def test_unset_request_depth_is_the_papers(self):
        assert SimRequest("C", "557.xz").point.imul_extra_cycles == 1

    def test_job_point(self):
        spec = canned_search("nginx_quick")
        job = SimJob.from_genome(spec, Genome(
            deadline_us=20.0, strategy="fV", offset_mv=-97.0,
            corner="typical", imul_latency=5))
        assert job.point(spec.seed) == OperatingPoint(
            spec.cpu, spec.workload, strategy="fV", voltage_offset=-0.097,
            seed=spec.seed, n_cores=spec.n_cores, deadline_us=20.0,
            imul_extra_cycles=2)


class TestProbedNames:
    """The service worker and the DSE reach the simulator through the
    module globals ``repro.core.suit.simulate_sweep`` and
    ``repro.core.suit.cached_trace``, and the worker encodes answers
    through ``repro.runtime.serialization.jsonify``: the benchmark's
    layer probes wrap those names, so if evaluation stopped calling
    them, its per-layer figures would silently read zero."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"sweeps": 0, "traces": 0, "jsonify": 0}
        for owner, name, key in ((suit, "simulate_sweep", "sweeps"),
                                 (suit, "cached_trace", "traces"),
                                 (serialization, "jsonify", "jsonify")):
            real = getattr(owner, name)

            def counted(*args, _real=real, _key=key, **kwargs):
                counts[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return counts

    def test_execute_batch_runs_one_sweep_per_group(self, counts):
        requests = [SimRequest("C", "557.xz", strategy=s, seed=seed).to_dict()
                    for seed in (0, 1) for s in ("fV", "V", "e")]
        outcomes = execute_batch(requests)
        assert [o["group_width"] for o in outcomes] == [3] * 6
        assert (counts["sweeps"], counts["traces"]) == (2, 2)
        assert counts["jsonify"] > 0

    def test_dse_generation_runs_one_sweep_per_deadline(self, counts):
        genomes = [Genome(deadline_us=d, strategy=s, offset_mv=-97.0,
                          corner="typical", imul_latency=4)
                   for d in (20.0, 50.0) for s in ("fV", "f")]
        LocalEvalBackend(canned_search("nginx_quick")).evaluate(genomes)
        assert (counts["sweeps"], counts["traces"]) == (2, 2)
