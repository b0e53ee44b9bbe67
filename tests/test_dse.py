"""Unit tests for :mod:`repro.dse` — genomes, objectives, evaluation,
the NSGA-II runner, the HTML report and the ``dse`` CLI.

The load-bearing assertion lives here too: generation evaluation must
flow through ``simulate_sweep``, one call per same-deadline job group
(observed via the ``batchsim_batch_width`` call count and
``batchsim_configs_total`` growth), never one simulation per genome.
"""

from __future__ import annotations

import json
from html.parser import HTMLParser

import numpy as np
import pytest

from repro.dse import (CANNED_SEARCHES, DseRunner, DseSpec, Genome,
                       LocalEvalBackend, ReportBuilder, SimJob,
                       canned_search, crossover, mutate, random_genome,
                       resolve_search, security_headroom_mv, violation_mv,
                       worst_kept_offset_v)
from repro.dse.evaluate import evaluate_job_group
from repro.dse.runner import HTML_NAME, REPORT_NAME
from repro.dse.space import (E_CANONICAL_DEADLINE_US,
                             E_CANONICAL_IMUL_LATENCY, load_search)
from repro.hardware.models import ALL_CPU_FACTORIES

#: One-generation search used by the runner/CLI tests (sub-second).
TINY = DseSpec(name="tiny", generations=1, population=4, seed=2,
               deadlines_us=(20.0, 50.0), offsets_mv=(-70.0, -97.0))


class TestGenome:
    def test_rejects_bad_genes(self):
        good = dict(deadline_us=30.0, strategy="fV", offset_mv=-97.0,
                    corner="typical", imul_latency=4)
        with pytest.raises(ValueError):
            Genome(**{**good, "deadline_us": -1.0})
        with pytest.raises(ValueError):
            Genome(**{**good, "strategy": "turbo"})
        with pytest.raises(ValueError):
            Genome(**{**good, "offset_mv": 20.0})
        with pytest.raises(ValueError):
            Genome(**{**good, "corner": "median"})
        with pytest.raises(ValueError):
            Genome(**{**good, "imul_latency": 2})

    def test_e_strategy_canonicalizes_inert_genes(self):
        raw = Genome(deadline_us=700.0, strategy="e", offset_mv=-97.0,
                     corner="typical", imul_latency=6)
        canon = raw.canonical()
        assert canon.deadline_us == E_CANONICAL_DEADLINE_US
        assert canon.imul_latency == E_CANONICAL_IMUL_LATENCY
        # Phenotype-equivalent 'e' genomes share one content address.
        other = Genome(deadline_us=10.0, strategy="e", offset_mv=-97.0,
                       corner="typical", imul_latency=3)
        assert raw.canonical_key() == other.canonical_key()
        # Non-'e' genomes keep every gene distinct.
        fv = Genome(deadline_us=30.0, strategy="fV", offset_mv=-97.0,
                    corner="typical", imul_latency=4)
        assert fv.canonical() == fv

    def test_json_round_trip_and_unknown_fields(self):
        genome = Genome(deadline_us=50.0, strategy="f", offset_mv=-110.0,
                        corner="slow", imul_latency=5)
        assert Genome.from_json_dict(genome.to_json_dict()) == genome
        with pytest.raises(ValueError):
            Genome.from_json_dict({**genome.to_json_dict(), "turbo": 1})

    def test_imul_extra_cycles_counts_above_baseline(self):
        genome = Genome(deadline_us=50.0, strategy="f", offset_mv=-110.0,
                        corner="slow", imul_latency=5)
        assert genome.imul_extra_cycles == 2


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DseSpec(name="")
        with pytest.raises(ValueError):
            DseSpec(name="x", population=3)
        with pytest.raises(ValueError):
            DseSpec(name="x", strategies=("warp",))
        with pytest.raises(ValueError):
            DseSpec(name="x", offsets_mv=(50.0,))
        with pytest.raises(ValueError):
            DseSpec(name="x", weights=(1.0, 1.0))

    def test_digest_tracks_identity(self):
        spec = canned_search("nginx_quick")
        assert spec.digest() == DseSpec.from_json_dict(
            spec.to_json_dict()).digest()
        assert spec.digest() != spec.with_overrides(seed=99).digest()

    def test_resolve_search_by_name_and_path(self, tmp_path):
        assert resolve_search("nginx_pareto") == \
            CANNED_SEARCHES["nginx_pareto"]
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"search": TINY.to_json_dict()}))
        assert resolve_search(str(path)) == TINY
        assert load_search(path) == TINY
        with pytest.raises(ValueError):
            resolve_search("no_such_search")


class TestOperators:
    def test_operators_are_pure_functions_of_the_generator(self):
        spec = canned_search("nginx_pareto")
        a = random_genome(spec, np.random.default_rng(1))
        b = random_genome(spec, np.random.default_rng(2))
        assert a == random_genome(spec, np.random.default_rng(1))
        assert mutate(a, spec, np.random.default_rng(3)) == \
            mutate(a, spec, np.random.default_rng(3))
        assert crossover(a, b, np.random.default_rng(4)) == \
            crossover(a, b, np.random.default_rng(4))

    def test_variation_stays_on_the_grids(self):
        spec = canned_search("nginx_pareto")
        rng = np.random.default_rng(7)
        genome = random_genome(spec, rng)
        for _ in range(200):
            genome = mutate(genome, spec, rng)
            assert genome.deadline_us in spec.deadlines_us
            assert genome.strategy in spec.strategies
            assert genome.offset_mv in spec.offsets_mv
            assert genome.corner in spec.corners
            assert genome.imul_latency in spec.imul_latencies

    def test_crossover_mixes_only_parent_genes(self):
        spec = canned_search("nginx_pareto")
        a = random_genome(spec, np.random.default_rng(1))
        b = random_genome(spec, np.random.default_rng(2))
        child = crossover(a, b, np.random.default_rng(5))
        for gene in ("deadline_us", "strategy", "offset_mv", "corner",
                     "imul_latency"):
            assert getattr(child, gene) in (getattr(a, gene),
                                            getattr(b, gene))


class TestSecurityMargin:
    CPU = staticmethod(lambda: ALL_CPU_FACTORIES["C"]())

    def test_imul_hardening_buys_undervolt_depth(self):
        cpu = self.CPU()
        shallow = worst_kept_offset_v(cpu, "typical", 3)
        deep = worst_kept_offset_v(cpu, "typical", 4)
        # At base latency the unhardened IMUL binds well above the
        # paper's -97 mV; one extra pipeline cycle clears it.
        assert shallow > -0.097
        assert deep < -0.097 - 0.100

    def test_corners_order_the_margins(self):
        cpu = self.CPU()
        offsets = [worst_kept_offset_v(cpu, corner, 4)
                   for corner in ("fast", "typical", "slow", "worst")]
        # Slower corners fault earlier: bounds move toward zero.
        assert offsets == sorted(offsets)

    def test_headroom_and_violation(self):
        cpu = self.CPU()
        genome = Genome(deadline_us=30.0, strategy="fV", offset_mv=-97.0,
                        corner="typical", imul_latency=4)
        headroom = security_headroom_mv(cpu, genome)
        bound = worst_kept_offset_v(cpu, "typical", 4)
        assert headroom == pytest.approx(-97.0 - bound * 1000.0)
        assert violation_mv(headroom, 100.0) == 0.0
        assert violation_mv(50.0, 100.0) == 50.0
        assert violation_mv(150.0, 100.0) == 0.0

    def test_corner_variants_share_one_simulation(self):
        spec = canned_search("nginx_quick")
        base = dict(deadline_us=30.0, strategy="fV", offset_mv=-97.0,
                    imul_latency=4)
        jobs = {SimJob.from_genome(
                    spec, Genome(corner=corner, **base)).key()
                for corner in ("fast", "typical", "slow", "worst")}
        assert len(jobs) == 1


class TestImulTaxEquivalence:
    def test_one_extra_cycle_matches_builtin_hardening(self):
        from repro.core.batchsim import SweepConfig, simulate_sweep
        from repro.workloads import resolve_profile
        from repro.workloads.tracecache import cached_trace

        spec = canned_search("nginx_quick")
        cpu = ALL_CPU_FACTORIES[spec.cpu]()
        profile = resolve_profile(spec.workload)
        trace = cached_trace(profile, spec.seed)
        builtin = simulate_sweep(
            cpu, profile, trace,
            [SweepConfig(strategy="fV", voltage_offset=-0.097,
                         seed=spec.seed, imul_extra_cycles=1)])[0]
        genome = Genome(deadline_us=30.0, strategy="fV", offset_mv=-97.0,
                        corner="typical", imul_latency=4)
        job = SimJob.from_genome(spec, genome)
        payload = evaluate_job_group(spec, [job])[job.key()]
        # The genome's +1-cycle depth is the simulator's default
        # hardening (30 us is the default deadline).
        assert payload["duration_s"] == builtin.duration_s
        assert payload["energy_rel"] == builtin.energy_rel

    def test_mixed_deadlines_run_one_sweep_per_deadline(self):
        spec = canned_search("nginx_quick")
        jobs = [SimJob(cpu="C", workload="nginx", strategy=strategy,
                       offset_mv=-97.0, deadline_us=d,
                       imul_extra_cycles=0, n_cores=1)
                for d in (20.0, 50.0) for strategy in ("fV", "f")]
        per_deadline = {}
        for d in (20.0, 50.0):
            per_deadline.update(evaluate_job_group(
                spec, [job for job in jobs if job.deadline_us == d]))
        before = TestLocalEvalBackend._sweep_calls()
        mixed = evaluate_job_group(spec, jobs)
        assert mixed == per_deadline
        calls, configs = TestLocalEvalBackend._sweep_calls()
        assert (calls - before[0], configs - before[1]) == (2, 4)


class TestLocalEvalBackend:
    GENOMES = [
        Genome(deadline_us=20.0, strategy="fV", offset_mv=-97.0,
               corner="typical", imul_latency=4),
        Genome(deadline_us=20.0, strategy="f", offset_mv=-70.0,
               corner="fast", imul_latency=3),
        Genome(deadline_us=50.0, strategy="e", offset_mv=-97.0,
               corner="typical", imul_latency=4),
        # Same job as the first genome, different corner.
        Genome(deadline_us=20.0, strategy="fV", offset_mv=-97.0,
               corner="worst", imul_latency=4),
    ]

    @staticmethod
    def _sweep_calls():
        """(calls, configs) so far, from simulate_sweep's width histogram."""
        from repro.obs import get_registry

        widths = get_registry().get("batchsim_batch_width")
        if widths is None:
            return 0, 0
        snap = widths.child().snapshot()
        return snap.n, snap.total

    def test_generations_flow_through_simulate_sweep(self):
        from repro.obs import get_registry

        spec = canned_search("nginx_quick")
        counter = get_registry().counter("batchsim_configs_total",
                                         label_names=("path",))
        before_vector = counter.value(path="vector")
        before_estimate = counter.value(path="estimate")
        before_calls, before_configs = self._sweep_calls()

        backend = LocalEvalBackend(spec)
        records = backend.evaluate(self.GENOMES)

        # 3 unique jobs: two simulated sweep entries + one estimate.
        assert counter.value(path="vector") == before_vector + 2
        assert counter.value(path="estimate") == before_estimate + 1
        assert [r["path"] for r in records] == \
            ["vector", "vector", "estimate", "vector"]
        # ...in one call per deadline group (20 us: 2 jobs, 50 us: 1),
        # where one call per genome would make 3.
        assert self._sweep_calls() == (before_calls + 2,
                                       before_configs + 3)

        # Re-evaluating adds zero simulations: all memo hits.
        backend.evaluate(self.GENOMES)
        assert counter.value(path="vector") == before_vector + 2
        assert self._sweep_calls() == (before_calls + 2,
                                       before_configs + 3)
        assert backend.memo_hits == len(self.GENOMES)

    def test_records_follow_input_order_and_dedupe(self):
        spec = canned_search("nginx_quick")
        backend = LocalEvalBackend(spec)
        records = backend.evaluate(self.GENOMES)
        assert len(records) == 4
        assert len(backend.sims) == 3
        # Corner twins share the simulation but not the margin.
        assert records[0]["sim_key"] == records[3]["sim_key"]
        assert records[0]["duration_ratio"] == records[3]["duration_ratio"]
        assert records[0]["headroom_mv"] > records[3]["headroom_mv"]

    def test_on_disk_cache_spans_backends(self, tmp_path):
        from repro.runtime.cache import ResultCache

        spec = canned_search("nginx_quick")
        cache = ResultCache(tmp_path / "cache")
        first = LocalEvalBackend(spec, cache=cache)
        records = first.evaluate(self.GENOMES)
        assert first.cache_hits == 0

        second = LocalEvalBackend(spec, cache=cache)
        again = second.evaluate(self.GENOMES)
        assert second.cache_hits == len(second.sims) == 3
        assert json.dumps(records, sort_keys=True) == \
            json.dumps(again, sort_keys=True)


class TestRunner:
    def test_populations_and_survivor_counts(self):
        spec = canned_search("nginx_quick")
        runner = DseRunner(spec)
        report = runner.run()
        assert len(runner.populations) == spec.generations
        assert all(len(pop) == spec.population
                   for pop in runner.populations)
        assert report["n_generations"] == spec.generations

    def test_front_members_do_not_dominate_each_other(self):
        from repro.dse.pareto import dominates

        report = DseRunner(canned_search("nginx_quick")).run()
        front = report["front"]
        assert front
        for a in front:
            for b in front:
                assert not dominates(a["objectives"], b["objectives"],
                                     a["violation_mv"], b["violation_mv"])

    def test_every_dominated_candidate_is_excluded(self):
        from repro.dse.pareto import dominates

        report = DseRunner(canned_search("nginx_quick")).run()
        front_keys = {r["key"] for r in report["front"]}
        front = report["front"]
        for record in report["all_evaluated"]:
            if record["key"] in front_keys:
                continue
            assert any(dominates(f["objectives"], record["objectives"],
                                 f["violation_mv"], record["violation_mv"])
                       for f in front)

    def test_generation_metrics_grow(self):
        from repro.obs import get_registry

        registry = get_registry()
        generations = registry.counter("dse_generations_total")
        genomes = registry.counter("dse_genomes_total",
                                   label_names=("path",))
        gen_before = generations.value()
        genome_before = sum(genomes.series().values())
        DseRunner(TINY).run()
        assert generations.value() == gen_before + TINY.generations
        assert sum(genomes.series().values()) == \
            genome_before + TINY.population

    def test_outputs_written_and_html_parses(self, tmp_path):
        runner = DseRunner(TINY, out_dir=tmp_path)
        runner.run()
        report = runner.write_outputs()
        on_disk = json.loads((tmp_path / REPORT_NAME).read_text())
        assert on_disk == report
        html = (tmp_path / HTML_NAME).read_text()
        parser = HTMLParser()
        parser.feed(html)
        parser.close()
        assert TINY.name in html
        assert "Pareto scatter" in html

    def test_report_builder_rejects_other_schemas(self):
        with pytest.raises(ValueError):
            ReportBuilder({"schema": "repro.campaign-report.v1"})

    def test_recommendation_is_a_frontier_member(self):
        report = DseRunner(canned_search("nginx_quick")).run()
        rec = report["recommendation"]
        front_keys = {r["key"] for r in report["front"]}
        assert rec["key"] in front_keys
        assert rec["method"] == "topsis"
        assert set(rec["objectives"]) == {"duration_ratio", "energy_ratio",
                                          "security_headroom_mv"}


class TestGoldenSearch:
    """The issue's end-to-end acceptance on the canned nginx search."""

    @pytest.fixture(scope="class")
    def report(self):
        return DseRunner(canned_search("nginx_pareto")).run()

    def test_frontier_is_nonempty_and_violation_free(self, report):
        assert report["front"]
        assert report["front_violations"] == 0
        assert all(r["violation_mv"] == 0.0 for r in report["front"])

    def test_recommendation_lands_at_the_papers_offset(self, report):
        rec = report["recommendation"]
        assert rec["offset_mv"] == pytest.approx(-97.0)
        assert rec["genome"]["strategy"] == "fV"

    def test_hypervolume_never_shrinks_across_generations(self, report):
        values = [g["hypervolume"] for g in report["generations"]]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestCli:
    def test_dse_subcommands_registered(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        assert "dse" in text

    def test_list_names_the_canned_searches(self, capsys):
        from repro.cli import main

        assert main(["dse", "list"]) == 0
        out = capsys.readouterr().out
        assert "nginx_pareto" in out and "nginx_quick" in out

    def test_run_recommend_report_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(TINY.to_json_dict()))
        out = tmp_path / "artifacts"
        assert main(["dse", "run", "--search", str(spec_path),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "recommended:" in text
        assert (out / REPORT_NAME).exists()
        assert (out / HTML_NAME).exists()

        assert main(["dse", "recommend", "--out", str(out)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert "offset_mv" in rec and "genome" in rec

        (out / HTML_NAME).unlink()
        assert main(["dse", "report", "--out", str(out)]) == 0
        assert (out / HTML_NAME).exists()

    def test_unknown_search_fails_loudly(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["dse", "run", "--search", "no_such_search"])

    def test_recommend_without_a_report_fails_loudly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["dse", "recommend", "--out", str(tmp_path)])
