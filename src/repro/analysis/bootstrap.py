"""Deterministic bootstrap confidence intervals for seed-averaged metrics.

The campaign runner averages every metric over a handful of independent
seeds; the analysis layer reports how trustworthy those means are.  With
n <= 10 seeds the Student-t interval leans hard on normality, so the
frontier tables use a percentile bootstrap of the mean instead — and,
like everything else in the runner stack, the resampling must be a pure
function of content: the resample index stream derives from
:func:`repro.util.rng.fold_seed` over caller-supplied labels (point
token, objective name), never from global RNG state, so serial runs,
process pools and warm-cache replays all report bit-identical intervals.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.util.rng import fold_seed


def bootstrap_mean_samples(
    values: Sequence[float],
    base_seed: int,
    *labels: object,
    n_resamples: int = 200,
) -> list:
    """Resampled means of ``values``, drawn from a content-derived stream.

    Each resample draws ``len(values)`` observations with replacement
    using ``random.Random(fold_seed(base_seed, *labels))``; the stream
    depends only on the seed and labels, so any process reproduces it.
    """
    values = list(values)
    if not values:
        raise ValueError("bootstrap of an empty sequence")
    if n_resamples <= 0:
        raise ValueError(f"n_resamples must be > 0, got {n_resamples}")
    n = len(values)
    # Exactly the indices ``rng.randrange(n)`` would return one at a time:
    # ``randrange`` keeps the top ``n.bit_length()`` bits of each 32-bit
    # Mersenne Twister word and rejects values >= n, and one
    # ``getrandbits(32 * m)`` call yields the next m words, least
    # significant first.
    rng = random.Random(fold_seed(base_seed, *labels))
    needed = n_resamples * n
    bits = n.bit_length()
    picks = np.empty(0, dtype=np.uint32)
    while picks.size < needed:
        # Acceptance is above one half; ask for the expected count plus slack.
        m = ((needed - picks.size) << bits) // n + 16
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        words = words >> (32 - bits)
        picks = np.concatenate((picks, words[words < n]))
    samples = np.asarray(values, dtype=np.float64)[picks[:needed].reshape(n_resamples, n)]
    # cumsum adds left to right like the scalar loop (np.sum's pairwise
    # order would change last bits); ``+ 0.0`` turns an all-negative-zero
    # total into the loop's +0.0, whose running total starts there.
    totals = np.cumsum(samples, axis=1)[:, -1] + 0.0
    return (totals / n).tolist()


def bootstrap_ci95(
    values: Sequence[float],
    base_seed: int,
    *labels: object,
    n_resamples: int = 200,
) -> float:
    """Half-width of the 95% percentile-bootstrap interval for the mean.

    Returns 0.0 for single observations (nothing to resample), matching
    :func:`repro.util.stats.confidence_interval_95`'s convention.
    """
    values = list(values)
    if len(values) <= 1:
        if not values:
            raise ValueError("bootstrap_ci95() of an empty sequence")
        return 0.0
    means = sorted(
        bootstrap_mean_samples(values, base_seed, *labels, n_resamples=n_resamples)
    )
    lo = _percentile(means, 0.025)
    hi = _percentile(means, 0.975)
    # Clamp: identical resampled means can differ by one ulp after the
    # percentile interpolation, which would print as a -1e-17 width.
    return max(0.0, (hi - lo) / 2.0)


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    position = fraction * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight
