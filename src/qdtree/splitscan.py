"""Per-attribute split search.

Real attributes are scanned in sorted order with prefix and suffix entropy
tables; discrete attributes are evaluated in one incremental pass. Both
scanners keep running counts in plain arrays plus unnormalized entropy sums
H (the sum of c * log2(c) over the counts), so each sample replaces exactly
one term per sum, and an entropy over n samples is log2(n) - H/n. The
discrete pass keeps three such sums over the z samples: one over class
counts, one over branch sizes N_w and one over class-branch pair counts. The
first gives the parent entropy, the second the split potential, and their
weighted branch entropy sum_w (N_w/z) * I_w is (H_sizes - H_pairs) / z. The
backend only books what its counting structure would have cost for the keys
of each scan (`book`), so it changes operation tallies but never the
arithmetic: the stream of floating-point operations is identical for every
backend.

The real scan is array code. One stable sort gives every sample's running
class count, and the suffix scan's counts are those mirrored. The
c * log2(c), log2(u) and split potential tables are built with math.log2,
because np.log2 differs from it in the last bit for some inputs. The H
differences are accumulated with cumsum, which adds left to right as a
per-sample loop does, so every score is bit-identical to that loop's.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criteria import POTENTIAL_EPSILON, gain_ratio, running_counts, xlog2x
from .dataset import DISCRETE, REAL


@dataclass(frozen=True)
class SplitTest:
    """A node test: threshold comparison on a real attribute, or a multiway
    branch on every domain value of a discrete attribute."""

    attr: int
    kind: str
    theta: float | None = None
    branch_count: int | None = None

    def __post_init__(self):
        if self.attr < 0:
            raise ValueError("attribute index must be non-negative")
        if self.kind == REAL:
            if self.theta is None or self.branch_count is not None:
                raise ValueError("a real test carries a threshold and nothing else")
        elif self.kind == DISCRETE:
            if self.branch_count is None or self.branch_count < 2 or self.theta is not None:
                raise ValueError("a discrete test carries a branch count of at least 2")
        else:
            raise ValueError("unknown test kind %r" % (self.kind,))


@dataclass
class RealScanState:
    """Sorted view of one real attribute plus prefix/suffix entropy tables.

    labels is the class column in the stable sort order of values. With z
    samples, prefix_info[u] is the class entropy of the first u sorted
    samples and suffix_info[u] the entropy of samples u..z (both 1-based), so
    prefix_info[z] and suffix_info[1] describe the whole subset.
    """

    values: np.ndarray
    labels: np.ndarray
    prefix_info: np.ndarray
    suffix_info: np.ndarray


@lru_cache(maxsize=1)
def _scan_tables(z):
    """Tables shared by every real scan over z samples, built with math.log2
    (np.log2 is not bit-identical to it): c * log2(c) and log2(c) for c in
    0..z, and for each cut u in 1..z-1 the fractions u/z and 1 - u/z with the
    split potential -(u/z log2(u/z) + (1 - u/z) log2(1 - u/z))."""
    xlog2c = [xlog2x(c) for c in range(z + 1)]
    log2c = [0.0] + [math.log2(c) for c in range(1, z + 1)]
    left = [u / z for u in range(1, z)]
    right = [1.0 - f for f in left]
    potential = [-(f * math.log2(f) + r * math.log2(r)) for f, r in zip(left, right)]
    tables = tuple(np.array(t, dtype=np.float64) for t in (xlog2c, log2c, left, right, potential))
    for t in tables:
        t.flags.writeable = False
    return tables


def _information_table(counts):
    """info[u] is the class entropy of the first u samples, given each
    sample's running class count.

    Each sample replaces one c * log2(c) term of the running sum h, and
    cumsum adds the differences left to right as a loop would.
    """
    xlog2c, log2c = _scan_tables(len(counts))[:2]
    h = np.cumsum(xlog2c[counts] - xlog2c[counts - 1])
    info = log2c[1:] - h / np.arange(1, len(counts) + 1)
    return np.concatenate(([0.0], np.where(info > 0.0, info, 0.0)))


def build_real_scan(view, attr, backend):
    """Sorts the view by one real attribute and fills the entropy tables.

    The suffix table reads the labels backwards, and the running count of
    a sample seen from the end is its class total minus its count from the
    front, plus one.
    """
    values = view.values(attr)
    order = np.argsort(values, kind="stable")
    labels = view.labels()[order]
    m = view.base.schema.class_count
    backend.book(labels, m)
    backend.book(labels[::-1], m)
    counts = running_counts(labels)
    backwards = (np.bincount(labels)[labels] - counts + 1)[::-1]
    return RealScanState(
        values=values[order],
        labels=labels,
        prefix_info=_information_table(counts),
        suffix_info=np.concatenate(([0.0], _information_table(backwards)[::-1])),
    )


def _candidate_arrays(view, attr, backend):
    """Thresholds, gains and potentials of every legal cut, in ascending
    threshold order: the midpoints between adjacent distinct sorted values."""
    state = build_real_scan(view, attr, backend)
    values = state.values
    z = len(values)
    _, _, left, right, potential = _scan_tables(z)
    cut = np.flatnonzero(values[:-1] != values[1:])
    gains = (
        state.prefix_info[z]
        - left[cut] * state.prefix_info[cut + 1]
        - right[cut] * state.suffix_info[cut + 2]
    )
    thetas = (values[cut] + values[cut + 1]) / 2.0
    return thetas, gains, potential[cut]


def real_split_candidates(view, attr, backend):
    """Scores every legal threshold for one real attribute.

    Returns a list of (theta, SplitScore) in ascending threshold order.
    """
    thetas, gains, potentials = _candidate_arrays(view, attr, backend)
    return [
        (theta, gain_ratio(g, p))
        for theta, g, p in zip(thetas.tolist(), gains.tolist(), potentials.tolist())
    ]


def scan_real_attribute(view, attr, backend):
    """Best threshold split of one real attribute, or None when every value
    is identical. Ties keep the smallest threshold, and when no cut is valid
    the first one stands."""
    thetas, gains, potentials = _candidate_arrays(view, attr, backend)
    if not len(thetas):
        return None
    valid = potentials > POTENTIAL_EPSILON
    best = int(np.argmax(np.where(valid, gains / potentials, -np.inf)))
    score = gain_ratio(float(gains[best]), float(potentials[best]))
    return score, SplitTest(attr, REAL, theta=float(thetas[best]))


def process_discrete_attribute(view, attr, backend):
    """One-pass multiway evaluation of a discrete attribute, or None when
    every sample carries the same value (a trivial partition)."""
    t = view.base.schema.domain_size(attr)
    m = view.base.schema.class_count
    values = view.values(attr).tolist()
    labels = view.labels().tolist()
    z = len(values)
    pairs = [(y - 1) * t + v for v, y in zip(values, labels)]
    # the branch-size array is a plain dense array on every backend: its
    # allocation and release cost T slots each
    backend.tally.maintenance(2 * t)
    backend.book(pairs, m * t)
    backend.book(labels, m)
    pair_counts = [0] * (m * t + 1)
    class_counts = [0] * (m + 1)
    sizes = [0] * (t + 1)
    size_h = class_h = pair_h = 0.0
    branches = 0
    for v, y, k in zip(values, labels, pairs):
        c = pair_counts[k] + 1
        pair_counts[k] = c
        pair_h += xlog2x(c) - xlog2x(c - 1)
        c = class_counts[y] + 1
        class_counts[y] = c
        class_h += xlog2x(c) - xlog2x(c - 1)
        nw = sizes[v] + 1
        sizes[v] = nw
        if nw == 1:
            branches += 1
        size_h += xlog2x(nw) - xlog2x(nw - 1)
    if branches <= 1:
        return None
    parent = max(0.0, math.log2(z) - class_h / z)
    potential = max(0.0, math.log2(z) - size_h / z)
    score = gain_ratio(parent - (size_h - pair_h) / z, potential)
    return score, SplitTest(attr, DISCRETE, branch_count=t)


def process_attribute(view, attr, backend):
    """Scores one attribute on a view.

    This is the scoring function handed both to the classical argmax and to
    the quantum-search chooser. Returns (SplitScore, SplitTest) or None when
    the attribute admits no candidate split on this view.
    """
    if len(view) < 2:
        return None
    if view.base.schema.is_real(attr):
        return scan_real_attribute(view, attr, backend)
    return process_discrete_attribute(view, attr, backend)
