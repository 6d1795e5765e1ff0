"""Splitting-criterion mathematics and the sparse ordered-map counter.

All entropy quantities are measured in bits (base-2 logarithms). The
0 * log(0) = 0 convention applies throughout, so empty classes and empty
branches contribute nothing.
"""

import math
from dataclasses import dataclass, field
from functools import total_ordering

import numpy as np

#: Partitions whose potential information falls at or below this bound are
#: trivial (essentially every sample on one branch) and must never win the
#: split argmax.
POTENTIAL_EPSILON = 1e-12


def xlog2x(n):
    """n * log2(n) with the 0 * log(0) = 0 convention."""
    return n * math.log2(n) if n > 0 else 0.0


@dataclass
class OpTally:
    """Operation counts for counter structures.

    element_ops counts per-key work (tree-node visits, array-slot touches).
    maintenance_ops counts structure-sized work: allocation, clearing and
    full iteration. Maintenance is also bucketed by the current tree level
    so builds can report where the work happened.
    """

    element_ops: int = 0
    maintenance_ops: int = 0
    level: int = 0
    by_level: dict = field(default_factory=dict)

    def element(self, n=1):
        self.element_ops += n

    def maintenance(self, n=1):
        self.maintenance_ops += n
        self.by_level[self.level] = self.by_level.get(self.level, 0) + n


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


@total_ordering
@dataclass(frozen=True, eq=False)
class SplitScore:
    """Gain, potential information and their ratio for one candidate test.

    The ordering is total: invalid scores (trivial partitions) compare below
    every valid score, and valid scores compare by ratio alone. Two scores
    are order-equal when neither beats the other, which is what argmax-set
    membership checks use.
    """

    gain: float
    potential: float
    ratio: float
    valid: bool = True

    @property
    def sort_key(self):
        return (1, self.ratio) if self.valid else (0, 0.0)

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __eq__(self, other):
        if not isinstance(other, SplitScore):
            return NotImplemented
        return self.sort_key == other.sort_key

    __hash__ = object.__hash__


#: The score every trivial split carries; loses every comparison against a
#: valid score. An explicit state, not a NaN or -inf marker.
INVALID_SPLIT = SplitScore(0.0, 0.0, 0.0, valid=False)


def gain_ratio(g, p):
    """Combines gain and potential information into an ordered SplitScore.

    A potential at or below POTENTIAL_EPSILON marks the split invalid instead
    of dividing by (almost) zero.
    """
    if p < 0:
        raise ValueError("potential information cannot be negative")
    if p <= POTENTIAL_EPSILON:
        return SplitScore(g, p, 0.0, valid=False)
    return SplitScore(g, p, g / p, valid=True)


class _AvlNode:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.left = None
        self.right = None
        self.height = 1


def _height(node):
    return node.height if node is not None else 0


def _update_height(node):
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance(node):
    return _height(node.left) - _height(node.right)


class SparseClassCounter:
    """Ordered counter that stores only keys with non-zero counts.

    Backed by an AVL tree, so add and get visit O(log s) nodes and full
    iteration or clearing visits exactly s nodes, where s is the number of
    stored keys. Every node visit is recorded in the attached OpTally, which
    is what the complexity probes measure. Keys may be any mutually ordered
    values (class indices, flat class-branch slots). add_all(keys) adds 1 to
    each key in order, returns each key's running count and books the same
    visits as a loop of add(key, 1).
    """

    def __init__(self, tally=None):
        self._root = None
        self._size = 0
        self.tally = tally if tally is not None else OpTally()

    def __len__(self):
        return self._size

    def get(self, key):
        node = self._root
        while node is not None:
            self.tally.element()
            if key == node.key:
                return node.value
            node = node.left if key < node.key else node.right
        return 0

    def add(self, key, delta=1):
        """Adds delta >= 1 to key's count and returns the new count."""
        if delta < 1:
            raise ValueError("counts only grow: delta must be >= 1, got %r" % (delta,))
        current = self.get(key)
        new = current + delta
        if current == 0:
            self._root = self._insert(self._root, key, new)
            self._size += 1
        else:
            self._overwrite(key, new)
        return new

    def add_all(self, keys):
        """Adds 1 to each key in order and returns each key's running count
        after its add, booking exactly the visits `for k in keys: add(k, 1)`
        would book.

        Only a key's first appearance changes the tree's shape, so those adds
        are replayed through the counted get walk and insert, which book the
        visits and rotations. Between two inserts the shape is fixed, and
        every other add of a key at depth k costs 2(k + 1) visits: one walk
        for get and one for the overwrite. So each distinct (epoch, key) pair
        that is re-added needs one depth lookup, made without booking.
        """
        keys = np.asarray(keys)
        if not len(keys):
            return np.zeros(0, dtype=np.int64)
        uniq, first, inverse, totals = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        inverse = inverse.reshape(-1)
        uniq, totals = uniq.tolist(), totals.tolist()
        stored = [self._find(key)[0] for key in uniq]
        prior = np.array([0 if node is None else node.value for node in stored], dtype=np.int64)
        counts = prior[inverse] + running_counts(keys)
        for node, total in zip(stored, totals):
            if node is not None:
                node.value += total
        inserts = np.sort(first[prior == 0])
        readds = np.ones(len(keys), dtype=bool)
        readds[inserts] = False
        readds = np.flatnonzero(readds)
        # one integer per (epoch, key) pair, where the epoch of a re-add is
        # the number of inserts before it
        pairs, times = np.unique(
            np.searchsorted(inserts, readds) * len(uniq) + inverse[readds], return_counts=True
        )
        pairs = iter(zip((pairs // len(uniq)).tolist(), (pairs % len(uniq)).tolist(), times.tolist()))
        pair = next(pairs, None)
        visits = 0
        for epoch, at in enumerate(inverse[inserts].tolist() + [None]):
            while pair is not None and pair[0] == epoch:
                visits += 2 * (self._find(uniq[pair[1]])[1] + 1) * pair[2]
                pair = next(pairs, None)
            if at is not None:
                self.get(uniq[at])
                self._root = self._insert(self._root, uniq[at], totals[at])
                self._size += 1
        self.tally.element(visits)
        return counts

    def items(self):
        """All (key, count) pairs in ascending key order."""
        self.tally.maintenance(self._size)
        out = []
        stack = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append((node.key, node.value))
            node = node.right
        return out

    def clear(self):
        self.tally.maintenance(self._size)
        self._root = None
        self._size = 0

    def _find(self, key):
        """(node, depth) of a stored key, or (None, depth of the empty slot
        it would fill); books nothing. The root has depth 0."""
        node = self._root
        depth = 0
        while node is not None and key != node.key:
            node = node.left if key < node.key else node.right
            depth += 1
        return node, depth

    def _overwrite(self, key, value):
        node = self._root
        while True:
            self.tally.element()
            if key == node.key:
                node.value = value
                return
            node = node.left if key < node.key else node.right

    def _insert(self, node, key, value):
        self.tally.element()
        if node is None:
            return _AvlNode(key, value)
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return self._rebalance(node)

    def _rebalance(self, node):
        _update_height(node)
        b = _balance(node)
        if b > 1:
            if _balance(node.left) < 0:
                node.left = self._rotate_left(node.left)
            return self._rotate_right(node)
        if b < -1:
            if _balance(node.right) > 0:
                node.right = self._rotate_right(node.right)
            return self._rotate_left(node)
        return node

    def _rotate_right(self, y):
        self.tally.element()
        x = y.left
        y.left = x.right
        x.right = y
        _update_height(y)
        _update_height(x)
        return x

    def _rotate_left(self, x):
        self.tally.element()
        y = x.right
        x.right = y.left
        y.left = x
        _update_height(x)
        _update_height(y)
        return y
