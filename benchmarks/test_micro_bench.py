"""Micro-benchmarks of the core primitives.

Measures the throughput of the hot paths a downstream user cares about:
trace synthesis, the event-based simulator, the out-of-order pipeline
model, and the functional emulators.
"""

import numpy as np
import pytest

from repro.core.params import DEFAULT_PARAMS_INTEL
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.emulation.aes import aes128_encrypt_block
from repro.emulation.bitsliced_aes import aes128_encrypt_block_ct
from repro.emulation.clmul import clmul64
from repro.hardware.models import cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.pipeline.config import GEM5_REFERENCE_CONFIG
from repro.pipeline.generator import StreamSpec, generate_stream
from repro.pipeline.scoreboard import OutOfOrderCore
from repro.workloads.generator import generate_trace
from repro.workloads.network import NGINX_PROFILE
from repro.workloads.profile import WorkloadProfile


@pytest.fixture(scope="module")
def bench_profile():
    return WorkloadProfile(
        name="bench", suite="SPECint", n_instructions=500_000_000, ipc=1.5,
        efficient_occupancy=0.6, n_episodes=50, dense_gap=3_000,
        opcode_mix={Opcode.VOR: 1.0})


@pytest.fixture(scope="module")
def bench_trace(bench_profile):
    return generate_trace(bench_profile, seed=0)


def test_trace_synthesis(benchmark, bench_profile):
    trace = benchmark(generate_trace, bench_profile, seed=1)
    assert trace.n_events > 10_000


def test_trace_synthesis_nginx(benchmark):
    """Synthesis at the size ``opbench cold`` pays per op (~8.3 M events)."""
    trace = benchmark(generate_trace, NGINX_PROFILE, seed=1)
    assert trace.n_events > 8_000_000


def test_trace_simulator_fv(benchmark, bench_profile, bench_trace):
    cpu = cpu_c_xeon_4208()

    def run():
        sim = TraceSimulator(cpu, bench_profile, bench_trace,
                             strategy_for("fV", DEFAULT_PARAMS_INTEL),
                             -0.097, seed=0)
        return sim.run()

    result = benchmark(run)
    assert result.n_exceptions > 0


def test_pipeline_scoreboard(benchmark):
    stream = generate_stream(
        StreamSpec(n_instructions=20_000, imul_density=0.005), seed=0)
    core = OutOfOrderCore(GEM5_REFERENCE_CONFIG)
    stats = benchmark(core.run, stream)
    assert stats.ipc > 1.0


def test_aes_table_based(benchmark):
    out = benchmark(aes128_encrypt_block, b"p" * 16, b"k" * 16)
    assert len(out) == 16


def test_aes_table_free(benchmark):
    out = benchmark(aes128_encrypt_block_ct, b"p" * 16, b"k" * 16)
    assert out == aes128_encrypt_block(b"p" * 16, b"k" * 16)


def test_clmul(benchmark):
    a, b = 0x123456789ABCDEF0, 0x0FEDCBA987654321
    out = benchmark(clmul64, a, b)
    assert out == clmul64(a, b)
