"""Time-stamp and frequency counters, and sampled delays.

``TSC`` ticks at the base clock regardless of the actual core frequency;
``APERF``/``MPERF`` tick at the actual and base clock respectively while
the core is in C0, so ``aperf/mperf * base`` recovers the effective
frequency — the technique the paper uses to measure frequency-change
delays (section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DelaySpec:
    """A measured delay: Gaussian with mean and standard deviation.

    All the microbenchmarked latencies in section 5.2/5.3 (exception
    entry, emulation round trip, voltage/frequency change) are represented
    this way; :meth:`sample` draws one realisation, clipped so delays are
    never negative or wildly out of family.
    """

    mean_s: float
    sigma_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_s < 0 or self.sigma_s < 0:
            raise ValueError("delay mean and sigma must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        """One realisation, clipped to [mean/4, mean*4].

        *rng* is anything with ``Generator.normal``'s scalar form, such
        as the simulator's :class:`~repro.core.simulator.NormalStream`.
        A zero-sigma spec draws nothing.
        """
        if self.sigma_s == 0:
            return self.mean_s
        mean = self.mean_s
        value = rng.normal(mean, self.sigma_s)
        # The same value as float(min(max(value, lo), hi)), NaN included.
        lo = mean * 0.25
        if value < lo:
            value = lo
        hi = mean * 4.0
        if hi < value:
            value = hi
        return float(value)


@dataclass
class CoreCounters:
    """TSC / APERF / MPERF state of one core.

    Attributes:
        base_frequency: the invariant TSC (and MPERF) clock in Hz.
        tsc, aperf, mperf: current counter values (cycles).
    """

    base_frequency: float
    tsc: float = 0.0
    aperf: float = 0.0
    mperf: float = 0.0
    _last_aperf: float = field(default=0.0, repr=False)
    _last_mperf: float = field(default=0.0, repr=False)

    def advance(self, duration_s: float, frequency: float, stalled: bool = False) -> None:
        """Advance the counters by *duration_s* at *frequency*.

        TSC always ticks; APERF/MPERF stop while the core is stalled
        (clock-gated during a frequency switch).
        """
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.tsc += duration_s * self.base_frequency
        if not stalled:
            self.aperf += duration_s * frequency
            self.mperf += duration_s * self.base_frequency

    def effective_frequency(self) -> float:
        """Frequency over the window since the previous call (Hz).

        Mirrors the kernel's APERF/MPERF sampling: both counters are read
        and reset-by-difference; returns the base frequency if the core
        has not run since the last sample.
        """
        d_aperf = self.aperf - self._last_aperf
        d_mperf = self.mperf - self._last_mperf
        self._last_aperf = self.aperf
        self._last_mperf = self.mperf
        if d_mperf <= 0:
            return self.base_frequency
        return d_aperf / d_mperf * self.base_frequency
