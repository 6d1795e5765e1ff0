"""From-definition reference scoring used as ground truth in tests.

This is the package's one from-definition entropy: `entropy` is its only
entropy loop, and `gain`, the potential information and every candidate
score are built on it. Everything here is recomputed naively per
candidate: labels are materialized as plain lists, histograms are
collections.Counter, and every score comes straight from the
relative-frequency definitions. No prefix tables, no incremental
accumulators, no shared counter machinery: of the package this module
imports only the dataset model. Equivalence tests against the production
scanners are meaningful only because the two sides share nothing beyond
float arithmetic and math.log2.

Not performance-tuned on purpose; intended for desk-scale instances only.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import DISCRETE, REAL, SubsetView

TRIVIAL_POTENTIAL = 1e-12


def entropy(counts):
    """Entropy in bits of a vector of non-negative counts, from relative
    frequencies: -sum_j p_j * log2(p_j) over the non-zero entries. An
    all-zero or empty vector has entropy 0.

    Class counts give the class entropy; branch sizes give the potential
    information of a partition.
    """
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def label_entropy(labels):
    """Entropy in bits of a label sequence."""
    return entropy(Counter(labels).values())


def gain(parent, branches):
    """Information gain of partitioning the counts `parent` into the count
    vectors `branches`: entropy(parent) - sum_b (|b| / n) * entropy(b),
    where |b| is a branch's total and n the parent's. Empty branches
    contribute nothing."""
    n = sum(parent)
    g = entropy(parent)
    for b in branches:
        size = sum(b)
        if size:
            g -= (size / n) * entropy(b)
    return g


def majority_label(labels):
    """Most frequent label, smallest label on ties."""
    counts = Counter(labels)
    return min(counts, key=lambda c: (-counts[c], c))


@dataclass(frozen=True)
class OracleCandidate:
    """One fully scored candidate test."""

    attr: int
    kind: str
    theta: float | None
    branch_labels: tuple
    gain: float
    potential: float
    ratio: float
    valid: bool


@dataclass
class OracleResult:
    """Every legal candidate on a view, plus the best one under the builder's
    tie-break (highest ratio, then lowest attribute, then lowest threshold)."""

    table: list
    best: OracleCandidate | None


def _scored(attr, kind, theta, labels, branch_labels):
    g = gain(Counter(labels).values(), [Counter(part).values() for part in branch_labels])
    p = entropy([len(part) for part in branch_labels])
    valid = p > TRIVIAL_POTENTIAL
    ratio = g / p if valid else 0.0
    return OracleCandidate(
        attr=attr,
        kind=kind,
        theta=theta,
        branch_labels=tuple(tuple(part) for part in branch_labels),
        gain=g if valid else 0.0,
        potential=p if valid else 0.0,
        ratio=ratio,
        valid=valid,
    )


def candidates_for_attribute(view, attr):
    """All legal candidate tests on one attribute, scored from scratch."""
    labels = view.labels().tolist()
    values = view.values(attr).tolist()
    n = len(labels)
    if n < 2:
        return []
    out = []
    if view.base.schema.is_real(attr):
        pairs = sorted(zip(values, labels))
        distinct = sorted(set(values))
        for lo, hi in zip(distinct, distinct[1:]):
            theta = (lo + hi) / 2.0
            if not math.isfinite(theta):
                theta = lo / 2.0 + hi / 2.0
            if theta >= hi:
                theta = lo
            left = [y for v, y in pairs if v <= theta]
            right = [y for v, y in pairs if v > theta]
            out.append(_scored(attr, REAL, theta, labels, [left, right]))
    else:
        domain = view.base.schema.domain_size(attr)
        if len(set(values)) >= 2:
            parts = [[y for v, y in zip(values, labels) if v == w]
                     for w in range(1, domain + 1)]
            out.append(_scored(attr, DISCRETE, None, labels, parts))
    return out


def _best(candidates):
    """The best valid candidate under the builder's tie-break (highest ratio,
    then lowest attribute, then lowest threshold), or None."""
    return max(
        (cand for cand in candidates if cand.valid),
        key=lambda cand: (cand.ratio, -cand.attr, -(cand.theta or 0.0)),
        default=None,
    )


def brute_force_best_split(view):
    """Scores every legal candidate on the view and picks the best valid one."""
    table = []
    for attr in range(view.base.schema.attribute_count):
        table.extend(candidates_for_attribute(view, attr))
    return OracleResult(table=table, best=_best(table))


def attribute_best(view, attr):
    """Best valid candidate restricted to one attribute, or None."""
    return _best(candidates_for_attribute(view, attr))


def argmax_attributes(view, tol=0.0):
    """Attributes whose best candidate ratio is within tol of the overall max.

    Empty set when no attribute admits a valid candidate.
    """
    per_attr = {}
    for attr in range(view.base.schema.attribute_count):
        cand = attribute_best(view, attr)
        if cand is not None:
            per_attr[attr] = cand.ratio
    if not per_attr:
        return set()
    top = max(per_attr.values())
    return {attr for attr, r in per_attr.items() if r >= top - tol}


def exhaustive_depth1_accuracy(view):
    """Best training accuracy over all height-1 trees, the bare majority leaf
    included. Each branch of each candidate predicts its own majority."""
    labels = view.labels().tolist()
    n = len(labels)
    best = Counter(labels).most_common(1)[0][1] / n
    for attr in range(view.base.schema.attribute_count):
        for cand in candidates_for_attribute(view, attr):
            hits = sum(Counter(part).most_common(1)[0][1]
                       for part in cand.branch_labels if part)
            best = max(best, hits / n)
    return best


def reference_tree(view, height_limit, min_split=2):
    """Grows a tree by brute force, as nested plain dicts.

    Mirrors the production stopping rules (purity, height, minimum subset
    size, no valid candidate) and tie-breaks, but every decision comes from
    brute_force_best_split and partitions are rebuilt by direct row scans.
    Leaves are {"class": c}; internal nodes {"attr": j, "theta": t or None,
    "children": [...]}.
    """
    labels = view.labels().tolist()
    if len(set(labels)) <= 1 or height_limit <= 0 or len(labels) < min_split:
        return {"class": majority_label(labels)}
    best = brute_force_best_split(view).best
    if best is None:
        return {"class": majority_label(labels)}
    values = view.values(best.attr).tolist()
    indices = np.asarray(view.indices)
    if best.kind == REAL:
        groups = [[i for i, v in zip(indices, values) if v <= best.theta],
                  [i for i, v in zip(indices, values) if v > best.theta]]
    else:
        domain = view.base.schema.domain_size(best.attr)
        groups = [[i for i, v in zip(indices, values) if v == w]
                  for w in range(1, domain + 1)]
    fallback = majority_label(labels)
    children = []
    for group in groups:
        if not group:
            children.append({"class": fallback})
        else:
            child = SubsetView(view.base, np.asarray(group, dtype=np.int64))
            children.append(reference_tree(child, height_limit - 1, min_split))
    return {"attr": best.attr, "theta": best.theta, "children": children}
