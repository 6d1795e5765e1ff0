"""Splitting-criterion mathematics.

All entropy quantities are measured in bits (base-2 logarithms). The
0 * log(0) = 0 convention applies throughout, so empty classes and empty
branches contribute nothing.
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


def running_counts(keys):
    """counts[i] is the number of times keys[i] occurs in keys[:i + 1].

    A stable sort groups equal keys in their original order, so each
    position's count is its rank within its group.
    """
    keys = np.asarray(keys)
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = grouped[1:] != grouped[:-1]
    ranks = np.arange(n, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    counts[order] = ranks - np.maximum.accumulate(np.where(starts, ranks, 0)) + 1
    return counts


def information(counts):
    """Entropy in bits of a vector of non-negative counts:
    -sum_j p_j * log2(p_j) over the non-zero entries.

    Class counts give the class entropy, always in [0, log2(number of
    non-zero classes)]. Raises on a negative entry and on an all-zero
    vector, which has no defined entropy.
    """
    n = 0
    for c in counts:
        if c < 0:
            raise ValueError("counts cannot be negative")
        n += c
    if n <= 0:
        raise ValueError("cannot take the information of an empty set")
    acc = 0.0
    for c in counts:
        if c:
            p = c / n
            acc -= p * math.log2(p)
    return max(0.0, acc)


#: Entropy of the branch-size distribution, -sum_i (n_i/n) log2(n_i/n).
potential_information = information


def gain(parent, branches):
    """Information gain of partitioning the class counts `parent` into the
    class-count vectors `branches`.

    Every vector has one entry per class and the branches must sum, class
    by class, to the parent; all-zero branches are legal and contribute
    nothing.
    """
    total = sum(sum(b) for b in branches)
    n = sum(parent)
    if total != n:
        raise ValueError("branch sizes sum to %d but the parent holds %d samples" % (total, n))
    merged = [sum(column) for column in zip(*branches)]
    if any(len(b) != len(parent) for b in branches) or merged != list(parent):
        raise ValueError("branch class counts do not sum to the parent's counts")
    g = information(parent)
    for b in branches:
        size = sum(b)
        if size:
            g -= (size / n) * information(b)
    return g


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
