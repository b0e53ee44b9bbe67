"""Exactness of the simulator's cheap per-event arithmetic.

:class:`~repro.core.simulator.TraceSimulator` draws its delays from a
:class:`~repro.core.simulator.NormalStream` instead of calling
``Generator.normal`` once per delay, and :meth:`DelaySpec.sample` clips
with comparisons instead of ``min``/``max``.  Both are only allowed
because they return the same bits; these tests pin that argument
directly, next to the recorded-output regression
(``tests/test_sim_regression.py``) that pins its consequence.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import NormalStream
from repro.hardware.counters import DelaySpec
from repro.hardware.models import ALL_CPU_FACTORIES


def _cpu_delay_specs():
    """Every DelaySpec the simulator can draw from, over all CPUs."""
    specs = []
    for factory in ALL_CPU_FACTORIES.values():
        cpu = factory()
        transitions = cpu.transitions
        specs += [cpu.exception_delay, cpu.emulation_call_delay,
                  transitions.frequency.delay, transitions.frequency.stall]
        if transitions.voltage is not None:
            specs.append(transitions.voltage.delay)
    return sorted(set(specs), key=lambda s: (s.mean_s, s.sigma_s))


SPECS = _cpu_delay_specs()


class _SmallBlockStream(NormalStream):
    """Refills every 7 draws, so short sequences cross many refills."""

    BLOCK = 7


def _draw_plans(block: int):
    """Lists of draws: a spec index for a scalar draw, or
    ``("size", spec index, n)`` for a sized draw of 0 to 3 blocks."""
    scalar = st.integers(0, len(SPECS) - 1)
    sized = st.tuples(st.just("size"), st.integers(0, len(SPECS) - 1),
                      st.integers(0, 3 * block))
    return st.lists(st.one_of(scalar, sized), max_size=60)


@pytest.mark.parametrize("stream_cls", [NormalStream, _SmallBlockStream],
                         ids=["default-block", "block-7"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_stream_equals_generator(stream_cls, seed, data):
    plan = data.draw(_draw_plans(stream_cls.BLOCK))
    stream = stream_cls(seed)
    gen = np.random.default_rng(seed)
    for step in plan:
        if isinstance(step, int):
            spec = SPECS[step]
            got = stream.normal(spec.mean_s, spec.sigma_s)
            want = gen.normal(spec.mean_s, spec.sigma_s)
            assert type(got) is float
            assert got == want
        else:
            _, index, size = step
            spec = SPECS[index]
            got = stream.normal(spec.mean_s, spec.sigma_s, size=size)
            want = gen.normal(spec.mean_s, spec.sigma_s, size=size)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
    # The stream's next draw is still the generator's next draw.
    assert stream.normal(0.0, 1.0) == gen.normal(0.0, 1.0)


class _FixedRng:
    """Returns one fixed value from every ``normal`` call."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.calls = 0

    def normal(self, loc, scale):
        self.calls += 1
        return self.value


def _same_float(a: float, b: float) -> bool:
    """Equal including the sign of zero; NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _clip_values(mean: float):
    """Values around both bounds and the special floats, as Python
    floats and as NumPy scalars (which ``sample`` returns as floats)."""
    lo, hi = mean * 0.25, mean * 4.0
    values = [lo * 0.5, math.nextafter(lo, -math.inf), lo,
              math.nextafter(lo, math.inf), mean,
              math.nextafter(hi, -math.inf), hi, math.nextafter(hi, math.inf),
              hi * 2.0, 0.0, -0.0, math.inf, -math.inf, math.nan, -1.0]
    return values + [np.float64(v) for v in values]


@pytest.mark.parametrize("mean", [0.34e-6, 22e-6, 350e-6, 1.0, 0.0])
def test_sample_clip_matches_min_max(mean):
    spec = DelaySpec(mean, sigma_s=mean * 0.1 or 1e-9)
    for value in _clip_values(mean):
        got = spec.sample(_FixedRng(value))
        want = float(min(max(value, mean * 0.25), mean * 4.0))
        assert type(got) is float
        assert _same_float(got, want), (mean, value, got, want)


def test_zero_sigma_spec_draws_nothing():
    spec = DelaySpec(22e-6, 0.0)
    rng = _FixedRng(1.0)
    assert spec.sample(rng) == 22e-6
    assert rng.calls == 0

    stream = NormalStream(5)
    for _ in range(3):
        assert spec.sample(stream) == 22e-6
    drawing = DelaySpec(22e-6, 0.21e-6)
    assert drawing.sample(stream) == drawing.sample(np.random.default_rng(5))
