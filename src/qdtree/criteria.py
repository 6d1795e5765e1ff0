"""Splitting-criterion arithmetic shared by the split scanners.

All entropy quantities are measured in bits (base-2 logarithms). The
0 * log(0) = 0 convention applies throughout, so empty classes and empty
branches contribute nothing. This module holds only what the scanners and
choosers use: the xlog2x term, running counts, and the gain-ratio score.
Entropy and gain computed from their definitions, the ground truth the
scanners' incremental sums are checked against, live in qdtree.oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

#: Partitions whose potential information falls at or below this bound are
#: trivial (essentially every sample on one branch) and must never win the
#: split argmax.
POTENTIAL_EPSILON = 1e-12


def xlog2x(n):
    """n * log2(n) with the 0 * log(0) = 0 convention."""
    return n * math.log2(n) if n > 0 else 0.0


def running_counts(keys, bound=None):
    """counts[i] is the number of times keys[i] occurs in keys[:i + 1].

    A stable sort groups equal keys in their original order, so each
    position's count is its rank within its group. That order is unique,
    so keys known to lie in 0..bound - 1 for a bound of at most 2**16 are
    sorted as 16-bit integers, which numpy sorts stably by radix. Larger
    keys keep numpy's stable sort, a timsort, rather than two 16-bit radix
    passes: a level batch's keys are segment-major runs, and on 3000 of
    them over 256 to 1000 views, timsort took 13 to 27 us and the two
    passes 41 to 50 us (numpy 2.4, shared 2-vCPU VM).
    """
    keys = np.asarray(keys)
    if bound is not None and bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = grouped[1:] != grouped[:-1]
    ranks = np.arange(n, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    counts[order] = ranks - np.maximum.accumulate(np.where(starts, ranks, 0)) + 1
    return counts


@dataclass(frozen=True)
class SplitScore:
    """Gain, potential information and their ratio for one candidate test.

    The ratio is the split's only rank: a trivial split carries -inf, so it
    ranks below every valid split and choosers compare plain floats.
    """

    gain: float
    potential: float
    ratio: float

    @property
    def valid(self):
        return self.ratio > -math.inf


#: The score every trivial split carries.
INVALID_SPLIT = SplitScore(0.0, 0.0, -math.inf)


def gain_ratio(g, p):
    """Combines gain and potential information into a SplitScore.

    A potential at or below POTENTIAL_EPSILON marks the split invalid (ratio
    -inf) instead of dividing by (almost) zero.
    """
    if p < 0:
        raise ValueError("potential information cannot be negative")
    return SplitScore(g, p, g / p if p > POTENTIAL_EPSILON else -math.inf)
