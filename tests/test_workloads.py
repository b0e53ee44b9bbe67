"""Unit tests for traces, gap models, profiles, generation, analysis."""

import numpy as np
import pytest

from repro.isa.opcodes import Opcode
from repro.workloads.analysis import (
    burst_statistics,
    gap_size_timeline,
    instructions_per_faultable,
)
from repro.workloads.gaps import burst_positions, interleave_sparse_events, lognormal_gaps
from repro.workloads.generator import generate_trace, single_burst_trace
from repro.workloads.network import NGINX_PROFILE, VLC_PROFILE
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec import (
    SPEC_FP_NAMES,
    SPEC_INT_NAMES,
    SPEC_PROFILES,
    all_spec_profiles,
    spec_profile,
)
from repro.workloads.trace import FaultableTrace


class TestGapPrimitives:
    def test_lognormal_gaps_median(self, rng):
        gaps = lognormal_gaps(rng, 20_000, median=1e5, sigma=0.5)
        assert np.median(gaps) == pytest.approx(1e5, rel=0.05)
        assert gaps.min() >= 1

    def test_lognormal_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            lognormal_gaps(rng, 10, median=0.5, sigma=1.0)
        with pytest.raises(ValueError):
            lognormal_gaps(rng, -1, median=10, sigma=1.0)

    def test_burst_positions_bounded_and_sorted(self, rng):
        pos = burst_positions(rng, start=1000, length=50_000, mean_gap=100)
        assert pos.min() >= 1000
        assert pos.max() < 51_000
        assert np.all(np.diff(pos) >= 0)

    def test_burst_positions_density(self, rng):
        pos = burst_positions(rng, 0, 1_000_000, mean_gap=100)
        assert pos.size == pytest.approx(10_000, rel=0.1)

    def test_sparse_events(self, rng):
        pos = interleave_sparse_events(rng, 50, 0, 10 ** 9)
        assert pos.size == 50
        assert np.all(np.diff(pos) >= 0)


class TestFaultableTrace:
    def _tiny(self):
        return FaultableTrace(
            name="t", n_instructions=1000, ipc=2.0,
            indices=np.array([10, 20, 500]), opcodes=np.array([0, 1, 0]),
            opcode_table=(Opcode.VOR, Opcode.AESENC))

    def test_basic_properties(self):
        t = self._tiny()
        assert t.n_events == 3
        assert t.faultable_rate == pytest.approx(3 / 1000)
        assert t.event_opcode(1) is Opcode.AESENC

    def test_gaps(self):
        t = self._tiny()
        assert t.gaps().tolist() == [10, 10, 480]

    def test_duration(self):
        t = self._tiny()
        assert t.duration_s(frequency=2.0) == pytest.approx(250.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultableTrace("x", 100, 1.0, np.array([5, 3]),
                           np.array([0, 0]), (Opcode.VOR,))
        with pytest.raises(ValueError):
            FaultableTrace("x", 100, 1.0, np.array([500]),
                           np.array([0]), (Opcode.VOR,))
        with pytest.raises(ValueError):
            FaultableTrace("x", 100, -1.0, np.array([5]),
                           np.array([0]), (Opcode.VOR,))

    def test_slice(self):
        t = self._tiny()
        part = t.slice_events(15, 600)
        assert part.n_instructions == 585
        assert part.indices.tolist() == [5, 485]

    def test_save_load_roundtrip(self, tmp_path):
        t = self._tiny()
        path = tmp_path / "trace.npz"
        t.save(path)
        loaded = FaultableTrace.load(path)
        assert loaded.name == t.name
        assert loaded.n_instructions == t.n_instructions
        assert np.array_equal(loaded.indices, t.indices)
        assert loaded.opcode_table == t.opcode_table


class TestWorkloadProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "SPECint", 0, 1.0, 0.5, 10, 100)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "SPECint", 100, 1.0, 1.5, 10, 100)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "SPECint", 100, 1.0, 0.5, 0, 100)

    def test_imul_cannot_be_in_mix(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "SPECint", 1000, 1.0, 0.5, 1, 100,
                            opcode_mix={Opcode.IMUL: 1.0})

    @pytest.mark.parametrize("mix", [
        {},
        {Opcode.VOR: 1.0, Opcode.VXOR: -0.5},
        {Opcode.VOR: 1.0, Opcode.VXOR: float("nan")},
        {Opcode.VOR: 1.0, Opcode.VXOR: float("inf")},
    ], ids=["empty", "negative", "nan", "infinite"])
    def test_bad_opcode_weights_rejected(self, mix):
        with pytest.raises(ValueError, match="opcode_mix"):
            WorkloadProfile("x", "SPECint", 1000, 1.0, 0.5, 1, 100,
                            opcode_mix=mix)

    def test_nosimd_lookup(self, small_profile):
        assert small_profile.nosimd_for("intel") == -0.02
        with pytest.raises(KeyError):
            small_profile.nosimd_for("via")

    def test_normalized_mix(self, small_profile):
        mix = small_profile.normalized_mix()
        assert sum(mix.values()) == pytest.approx(1.0)


class TestSpecProfiles:
    def test_twenty_three_benchmarks(self):
        assert len(SPEC_INT_NAMES) == 10
        assert len(SPEC_FP_NAMES) == 13
        assert len(all_spec_profiles()) == 23

    def test_paper_anchor_occupancies(self):
        assert spec_profile("557.xz").efficient_occupancy == pytest.approx(0.971)
        assert spec_profile("502.gcc").efficient_occupancy == pytest.approx(0.766)
        assert spec_profile("520.omnetpp").efficient_occupancy == pytest.approx(0.032)

    def test_mean_occupancy_near_paper(self):
        # Paper section 6.4: 72.7 % average time on the efficient curve.
        occ = [p.efficient_occupancy for p in all_spec_profiles()]
        assert sum(occ) / len(occ) == pytest.approx(0.727, abs=0.04)

    def test_x264_imul_statistics(self):
        x264 = spec_profile("525.x264")
        assert x264.imul_density == pytest.approx(0.0099)
        others = [p.imul_density for p in all_spec_profiles()
                  if p.name != "525.x264"]
        assert sum(others) / len(others) == pytest.approx(0.0007, abs=0.0004)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            spec_profile("999.nonsense")


class TestNetworkProfiles:
    def test_crypto_mix(self):
        for profile in (NGINX_PROFILE, VLC_PROFILE):
            assert Opcode.AESENC in profile.opcode_mix
            assert profile.opcode_mix[Opcode.AESENC] > 0.5

    def test_nginx_denser_than_vlc(self):
        assert NGINX_PROFILE.dense_gap < VLC_PROFILE.dense_gap


class TestGenerator:
    def test_deterministic_per_seed(self, small_profile):
        a = generate_trace(small_profile, seed=7)
        b = generate_trace(small_profile, seed=7)
        c = generate_trace(small_profile, seed=8)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_respects_bounds(self, small_trace, small_profile):
        assert small_trace.indices.min() >= 0
        assert small_trace.indices.max() < small_profile.n_instructions
        assert np.all(np.diff(small_trace.indices) >= 0)

    def test_opcode_mix_applied(self, small_trace):
        assert set(small_trace.opcode_table) == {Opcode.VOR, Opcode.VXOR}

    def test_dense_fraction_tracks_occupancy(self, dense_profile, small_profile):
        dense = generate_trace(dense_profile, seed=1)
        sparse = generate_trace(small_profile, seed=1)
        assert dense.faultable_rate > 5 * sparse.faultable_rate

    def test_single_burst_trace(self):
        t = single_burst_trace("b", 10_000_000, 1.5, 5_000_000, 100_000, 50.0)
        assert t.indices.min() >= 5_000_000
        assert t.indices.max() < 5_100_000
        assert t.n_events == pytest.approx(2000, rel=0.2)

    def test_single_burst_bounds_checked(self):
        with pytest.raises(ValueError):
            single_burst_trace("b", 1000, 1.5, 900, 200, 10.0)


class TestAnalysis:
    def test_gap_timeline_log_scale(self, small_trace):
        indices, log_gaps = gap_size_timeline(small_trace)
        assert indices.shape == log_gaps.shape
        assert log_gaps.min() >= 0

    def test_burst_statistics_structure(self, small_trace, small_profile):
        stats = burst_statistics(small_trace, burst_threshold=1_000_000)
        assert stats.n_bursts >= small_profile.n_episodes * 0.5
        assert 0 < stats.burst_instruction_fraction <= 1.0
        assert stats.mean_intra_gap < 1_000_000

    def test_burst_statistics_empty_trace(self):
        t = FaultableTrace("e", 1000, 1.0, np.array([], dtype=np.int64),
                           np.array([], dtype=np.uint8), (Opcode.VOR,))
        stats = burst_statistics(t)
        assert stats.n_bursts == 0
        assert instructions_per_faultable(t) == float("inf")

    def test_instructions_per_faultable(self, small_trace):
        rate = instructions_per_faultable(small_trace)
        assert rate == pytest.approx(1.0 / small_trace.faultable_rate)
