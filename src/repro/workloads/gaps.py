"""Gap and burst primitives for trace synthesis.

The paper's key workload observation (section 5.1, Figs 5 and 7) is that
faultable instructions arrive in *bursts*: dense episodes (e.g. one AES
instruction every few dozen instructions while a buffer is encrypted)
separated by gaps that span many orders of magnitude.  These helpers
generate the two ingredients: heavy-tailed gap sequences and positions of
events inside a dense episode.
"""

from __future__ import annotations

import numpy as np


def lognormal_gaps(rng: np.random.Generator, n: int, median: float,
                   sigma: float) -> np.ndarray:
    """*n* lognormal inter-event gaps (instructions, >= 1).

    Args:
        rng: randomness source.
        n: number of gaps.
        median: median gap in instructions.
        sigma: log-space standard deviation (1.0 spans ~1.5 decades).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if median < 1:
        raise ValueError("median gap must be at least 1 instruction")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    gaps = rng.lognormal(mean=np.log(median), sigma=sigma, size=n)
    return np.maximum(gaps, 1.0).astype(np.int64)


def burst_positions(rng: np.random.Generator, start: int, length: int,
                    mean_gap: float) -> np.ndarray:
    """Event positions of one dense episode.

    Events are laid out from *start* with exponentially distributed gaps
    (clamped to at least 1) of the given mean until *length* instructions
    are covered; a first draw that falls short of 90 % of the expected
    event count is extended by further draws.

    Returns:
        Sorted int64 instruction indices in ``[start, start + length)``.
    """
    if length <= 0:
        return np.empty(0, dtype=np.int64)
    if mean_gap < 1:
        raise ValueError("mean gap must be at least 1 instruction")
    expected = int(length / mean_gap)
    # Oversample, cumulate, trim: cheaper than a Python loop.  The
    # clamped gaps are >= 1, so the offsets increase and those inside
    # the episode are a prefix.
    n_draw = max(8, int(expected * 1.25) + 8)
    offsets = rng.exponential(mean_gap, size=n_draw)
    np.maximum(offsets, 1.0, out=offsets)
    np.cumsum(offsets, out=offsets)
    offsets = offsets[:np.searchsorted(offsets, length)]
    while offsets.size and offsets.size < expected * 0.9:
        extra = np.maximum(rng.exponential(mean_gap, size=n_draw), 1.0)
        more = offsets[-1] + np.cumsum(extra)
        offsets = np.concatenate([offsets, more[more < length]])
        if more[-1] >= length:
            break
    offsets += start
    return offsets.astype(np.int64)


def interleave_sparse_events(rng: np.random.Generator, n_events: int,
                             lo: int, hi: int) -> np.ndarray:
    """*n_events* isolated event positions uniform in ``[lo, hi)``."""
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    if n_events == 0 or hi <= lo:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.integers(lo, hi, size=n_events)).astype(np.int64)
