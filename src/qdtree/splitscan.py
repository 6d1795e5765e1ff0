"""Per-attribute split search.

Real attributes are scanned in sorted order with prefix and suffix entropy
tables; discrete attributes are evaluated in one incremental pass. Both
scanners keep running counters plus unnormalized entropy sums H (the sum of
c * log2(c) over stored counts), so each sample replaces exactly one term
per sum, and an entropy over n samples is log2(n) - H/n. The discrete pass
keeps three such sums over the z samples: one over class counts, one over
branch sizes N_w and one over class-branch pair counts. The first gives the
parent entropy, the second the split potential, and their weighted branch
entropy sum_w (N_w/z) * I_w is (H_sizes - H_pairs) / z. Counter structures
come from a pluggable backend, which changes operation tallies but never the
arithmetic: the stream of floating-point operations is identical for every
backend.
"""

import math
from dataclasses import dataclass

import numpy as np

from .criteria import gain_ratio, xlog2x
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
    labels: list
    prefix_info: list
    suffix_info: list


def _information_table(labels, counter):
    """info[u] is the class entropy of labels[:u]; clears the counter."""
    info = [0.0] * (len(labels) + 1)
    h = 0.0
    for u, y in enumerate(labels, 1):
        c = counter.add(y, 1)
        h += xlog2x(c) - xlog2x(c - 1)
        info[u] = max(0.0, math.log2(u) - h / u)
    counter.clear()
    return info


def build_real_scan(view, attr, backend):
    """Sorts the view by one real attribute and fills the entropy tables."""
    values = view.values(attr)
    order = np.argsort(values, kind="stable")
    labels = view.labels()[order].tolist()
    return RealScanState(
        values=values[order],
        labels=labels,
        prefix_info=_information_table(labels, backend.class_counter()),
        suffix_info=[0.0] + _information_table(labels[::-1], backend.class_counter())[::-1],
    )


def real_split_candidates(view, attr, backend):
    """Scores every legal threshold for one real attribute.

    Candidates are the midpoints between adjacent distinct sorted values, in
    ascending threshold order. Returns a list of (theta, SplitScore).
    """
    state = build_real_scan(view, attr, backend)
    values = state.values
    z = len(values)
    full_info = state.prefix_info[z]
    out = []
    for u in range(1, z):
        if values[u - 1] == values[u]:
            continue
        left = u / z
        right = 1.0 - left
        g = full_info - left * state.prefix_info[u] - right * state.suffix_info[u + 1]
        p = -(left * math.log2(left) + right * math.log2(right))
        theta = float((values[u - 1] + values[u]) / 2.0)
        out.append((theta, gain_ratio(g, p)))
    return out


def scan_real_attribute(view, attr, backend):
    """Best threshold split of one real attribute, or None when every value
    is identical. Ties keep the smallest threshold."""
    best = None
    for theta, score in real_split_candidates(view, attr, backend):
        if best is None or best[0] < score:
            best = (score, theta)
    if best is None:
        return None
    return best[0], SplitTest(attr, REAL, theta=best[1])


def process_discrete_attribute(view, attr, backend):
    """One-pass multiway evaluation of a discrete attribute, or None when
    every sample carries the same value (a trivial partition)."""
    t = view.base.schema.domain_size(attr)
    values = view.values(attr).tolist()
    labels = view.labels().tolist()
    z = len(values)
    # the branch-size array is a plain dense array on every backend: its
    # allocation and release cost T slots each, as a DenseCounter's would
    backend.tally.maintenance(2 * t)
    class_counts = backend.class_counter()
    pair_counts = backend.pair_counter(t)
    sizes = [0] * (t + 1)
    size_h = class_h = pair_h = 0.0
    branches = 0
    for v, y in zip(values, labels):
        c = pair_counts.add((y - 1) * t + v, 1)
        pair_h += xlog2x(c) - xlog2x(c - 1)
        c = class_counts.add(y, 1)
        class_h += xlog2x(c) - xlog2x(c - 1)
        nw = sizes[v] + 1
        sizes[v] = nw
        if nw == 1:
            branches += 1
        size_h += xlog2x(nw) - xlog2x(nw - 1)
    class_counts.clear()
    pair_counts.clear()
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
