"""The per-attribute discrete scan that splitscan's one-view pass replaced.

Each call scores one discrete attribute of a view on its own: its own class
pass over the labels, its own pair stream, and its own charge of the class
counter, the class-branch counter and the branch-size arrays. A view's d
calls are what the one-view pass must score and book, to the bit and op.
"""

import math

from qdtree.criteria import gain_ratio, xlog2x
from qdtree.dataset import DISCRETE
from qdtree.splitscan import SplitTest


def discrete_attribute(view, attr, backend):
    """(SplitScore, SplitTest) of one discrete attribute on a view, or None
    when every sample carries the same value; books the scan on backend."""
    t = view.base.schema.domain_size(attr)
    m = view.base.schema.class_count
    labels = view.labels().tolist()
    values = view.values(attr).tolist()
    z = len(values)
    step = [0.0] + [xlog2x(c) - xlog2x(c - 1) for c in range(1, z + 1)]
    class_counts = [0] * (m + 1)
    class_h = 0.0
    for y in labels:
        c = class_counts[y] = class_counts[y] + 1
        class_h += step[c]
    sizes = [0] * (t + 1)
    size_h = 0.0
    for v in values:
        c = sizes[v] = sizes[v] + 1
        size_h += step[c]
    pairs = [(y - 1) * t + v for v, y in zip(values, labels)]
    pair_counts = [0] * (m * t + 1)
    pair_h = 0.0
    for k in pairs:
        c = pair_counts[k] = pair_counts[k] + 1
        pair_h += step[c]
    backend.book(labels, m)
    backend.book(pairs, m * t)
    backend.charge(0, 2 * t)
    if sum(1 for size in sizes if size) <= 1:
        return None
    parent = max(0.0, math.log2(z) - class_h / z)
    potential = max(0.0, math.log2(z) - size_h / z)
    score = gain_ratio(parent - (size_h - pair_h) / z, potential)
    return score, SplitTest(attr, DISCRETE, branch_count=t)
