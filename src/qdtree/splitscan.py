"""Per-attribute split search.

Real attributes are scanned in sorted order with prefix and suffix entropy
tables; discrete attributes are evaluated in one incremental pass. Both
scanners keep running class counters plus unnormalized entropy sums (the sum
of c * log2(c) over stored keys), so each sample replaces exactly one term
per sum, and entropies are assembled on demand as log2(n) - H/n. Counter
structures come from a pluggable backend, which changes operation tallies
but never the arithmetic: the stream of floating-point operations is
identical for every backend.
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

    prefix_info[u] is the class entropy of the first u sorted samples and
    suffix_info[u] the entropy of samples u..z (both 1-based), so
    prefix_info[z] and suffix_info[1] describe the whole subset. class_totals
    ends up holding the class counts of the entire subset.
    """

    order: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    prefix_info: list
    suffix_info: list
    class_totals: object
    z: int


def build_real_scan(view, attr, backend):
    """Sorts the view by one real attribute and fills the entropy tables."""
    values = view.values(attr)
    labels = view.labels()
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_labels = labels[order].tolist()
    z = int(len(order))

    prefix = backend.class_counter()
    prefix_info = [0.0] * (z + 1)
    h = 0.0
    for u in range(1, z + 1):
        c = prefix.add(int(sorted_labels[u - 1]), 1)
        h += xlog2x(c) - xlog2x(c - 1)
        prefix_info[u] = max(0.0, math.log2(u) - h / u)

    suffix = backend.class_counter()
    suffix_info = [0.0] * (z + 2)
    h = 0.0
    for u in range(z, 0, -1):
        c = suffix.add(int(sorted_labels[u - 1]), 1)
        h += xlog2x(c) - xlog2x(c - 1)
        m = z - u + 1
        suffix_info[u] = max(0.0, math.log2(m) - h / m)
    suffix.clear()

    return RealScanState(
        order=np.asarray(view.indices)[order],
        values=sorted_values,
        labels=np.asarray(sorted_labels),
        prefix_info=prefix_info,
        suffix_info=suffix_info,
        class_totals=prefix,
        z=z,
    )


def real_split_candidates(view, attr, backend):
    """Scores every legal threshold for one real attribute.

    Candidates are the midpoints between adjacent distinct sorted values, in
    ascending threshold order. Returns a list of (theta, SplitScore).
    """
    state = build_real_scan(view, attr, backend)
    z = state.z
    full_info = state.prefix_info[z]
    values = state.values
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
    state.class_totals.clear()
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


@dataclass
class DiscreteScanState:
    """Running tallies for the one-pass evaluation of a discrete attribute.

    Each pushed sample updates the branch-size array, the class counter and
    the class-branch counter (keyed by the flat slot (j - 1) * T + w),
    replacing one c*log2(c) term in each of the three entropy sums. The entropy-valued properties divide by the final
    subset size, so they reach their definitions exactly when the last sample
    has been pushed (and track the partially filled table before that).
    """

    subset_size: int
    branch_count: int
    class_counts: object
    pair_counts: object
    branch_sizes: list
    branch_entropy_sums: list
    size_entropy_sum: float = 0.0
    class_entropy_sum: float = 0.0
    pair_entropy_sum: float = 0.0
    nonzero_branches: int = 0

    @classmethod
    def fresh(cls, backend, subset_size, branch_count):
        # the two branch-indexed arrays below are plain dense arrays in every
        # backend; their structure cost scales with the domain size only
        backend.tally.maintenance(2 * branch_count)
        return cls(
            subset_size=subset_size,
            branch_count=branch_count,
            class_counts=backend.class_counter(),
            pair_counts=backend.pair_counter(branch_count),
            branch_sizes=[0] * (branch_count + 1),
            branch_entropy_sums=[0.0] * (branch_count + 1),
        )

    def push(self, class_index, value):
        pair_count = self.pair_counts.add((class_index - 1) * self.branch_count + value, 1)
        dpair = xlog2x(pair_count) - xlog2x(pair_count - 1)
        self.pair_entropy_sum += dpair
        self.branch_entropy_sums[value] += dpair

        class_count = self.class_counts.add(class_index, 1)
        self.class_entropy_sum += xlog2x(class_count) - xlog2x(class_count - 1)

        nw = self.branch_sizes[value] + 1
        self.branch_sizes[value] = nw
        if nw == 1:
            self.nonzero_branches += 1
        self.size_entropy_sum += xlog2x(nw) - xlog2x(nw - 1)

    @property
    def parent_information(self):
        z = self.subset_size
        return max(0.0, math.log2(z) - self.class_entropy_sum / z)

    @property
    def potential(self):
        z = self.subset_size
        return max(0.0, math.log2(z) - self.size_entropy_sum / z)

    @property
    def branch_info_sum(self):
        """Size-weighted sum of branch entropies, sum_w (N_w/z) * I_w."""
        return (self.size_entropy_sum - self.pair_entropy_sum) / self.subset_size

    def final_score(self):
        g = self.parent_information - self.branch_info_sum
        return gain_ratio(g, self.potential)

    def release(self):
        self.class_counts.clear()
        self.pair_counts.clear()


def process_discrete_attribute(view, attr, backend):
    """One-pass multiway evaluation of a discrete attribute, or None when
    every sample carries the same value (a trivial partition)."""
    branch_count = view.base.schema.domain_size(attr)
    values = view.values(attr).tolist()
    labels = view.labels().tolist()
    state = DiscreteScanState.fresh(backend, len(values), branch_count)
    for v, y in zip(values, labels):
        state.push(int(y), int(v))
    if state.nonzero_branches <= 1:
        state.release()
        return None
    score = state.final_score()
    state.release()
    return score, SplitTest(attr, DISCRETE, branch_count=branch_count)


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
