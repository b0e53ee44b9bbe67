"""Shared fixtures: CPUs, small workloads, seeded RNGs."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.hardware.models import (
    cpu_a_i9_9900k,
    cpu_b_ryzen_7700x,
    cpu_c_xeon_4208,
    cpu_i5_1035g1,
)
from repro.isa.opcodes import Opcode
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def cpu_a():
    return cpu_a_i9_9900k()


@pytest.fixture(scope="session")
def cpu_b():
    return cpu_b_ryzen_7700x()


@pytest.fixture(scope="session")
def cpu_c():
    return cpu_c_xeon_4208()


@pytest.fixture(scope="session")
def cpu_i5():
    return cpu_i5_1035g1()


@pytest.fixture(scope="session")
def small_profile():
    """A small, fast-to-simulate workload profile."""
    return WorkloadProfile(
        name="small",
        suite="SPECint",
        n_instructions=200_000_000,
        ipc=1.5,
        efficient_occupancy=0.7,
        n_episodes=20,
        dense_gap=5_000,
        sparse_events=5,
        imul_density=0.001,
        imul_chain_fraction=0.2,
        nosimd_overhead={"intel": -0.02, "amd": -0.03},
        opcode_mix={Opcode.VOR: 0.5, Opcode.VXOR: 0.5},
    )


@pytest.fixture(scope="session")
def small_trace(small_profile):
    return generate_trace(small_profile, seed=1)


@pytest.fixture(scope="session")
def dense_profile():
    """A trap-dense profile (omnetpp-like)."""
    return WorkloadProfile(
        name="dense",
        suite="SPECint",
        n_instructions=100_000_000,
        ipc=1.0,
        efficient_occupancy=0.05,
        n_episodes=4,
        dense_gap=2_000,
        sparse_events=0,
        opcode_mix={Opcode.VPADDQ: 1.0},
    )


@pytest.fixture(scope="session")
def dense_trace(dense_profile):
    return generate_trace(dense_profile, seed=2)


_SHM_DIR = Path("/dev/shm")


def _repro_segments():
    return {p.name for p in _SHM_DIR.glob("repro_*")}


@pytest.fixture
def no_leaked_segments():
    """Fail a test that leaves a new ``/dev/shm/repro_*`` segment.

    Compares the names before and after the test, so segments leaked
    earlier on the host do not count.  Checks nothing where
    ``/dev/shm`` does not exist.
    """
    if not _SHM_DIR.is_dir():
        yield
        return
    before = _repro_segments()
    yield
    leaked = sorted(_repro_segments() - before)
    assert not leaked, f"test left shm segments behind: {leaked}"
