"""Ledger policies for the split scanners.

The scanners keep their own running counts in plain arrays; a backend only
books, in a shared OpTally, what its counting structure would have cost.
Every scan is a batch of +1 adds to a fresh counter that is cleared at the
end, and book(keys, slots) charges that batch, where slots is the dense key
range: M for a class counter, M * T for the class-branch table of a T-way
attribute (keyed by the flat slot (j - 1) * T + w). The baseline policy is
a dense array, so allocation and clearing touch every slot and each add one:
2 * slots maintenance and len(keys) element ops. The treemap policy replays
the keys through a SparseClassCounter, an AVL map whose costs follow the
keys actually stored. These are the paper's two classical bounds,
O(h·d·(NM + N log N)) and O(h·d·N log N). The backend changes operation
counts but never the produced scores.
"""

from dataclasses import dataclass, field

import numpy as np

BASELINE = "baseline"
TREEMAP = "treemap"

#: Batches shorter than this are replayed key by key: the grouped numpy
#: replay has a fixed cost of tens of microseconds that short batches do not
#: repay. Both paths book the same visits.
REPLAY_CUTOFF = 512


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


class DenseBackend:
    """Books a scan as a dense array of `slots` counters."""

    def __init__(self, tally=None):
        self.tally = tally if tally is not None else OpTally()

    def book(self, keys, slots):
        """Allocate and clear all slots, and touch one slot per key."""
        self.tally.maintenance(2 * slots)
        self.tally.element(len(keys))


class TreeMapBackend:
    """Books a scan as an ordered map holding only the keys it saw."""

    def __init__(self, tally=None):
        self.tally = tally if tally is not None else OpTally()

    def book(self, keys, slots):
        """Add every key to a fresh SparseClassCounter, then clear it."""
        counter = SparseClassCounter(self.tally)
        counter.add_all(keys)
        counter.clear()


def make_backend(name, tally=None):
    if name == BASELINE:
        return DenseBackend(tally)
    if name == TREEMAP:
        return TreeMapBackend(tally)
    raise ValueError("unknown counter backend %r" % (name,))


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
    values (class indices, flat class-branch slots). add_all(keys) books the
    same visits as a loop of add(key).
    """

    def __init__(self, tally=None):
        self._root = None
        self._size = 0
        self.tally = tally if tally is not None else OpTally()

    def get(self, key):
        node = self._root
        while node is not None:
            self.tally.element()
            if key == node.key:
                return node.value
            node = node.left if key < node.key else node.right
        return 0

    def add(self, key):
        """Adds 1 to key's count and returns the new count."""
        new = self.get(key) + 1
        if new == 1:
            self._root = self._insert(self._root, key, new)
            self._size += 1
        else:
            self._overwrite(key, new)
        return new

    def add_all(self, keys):
        """Adds 1 to each key in order, booking exactly the visits
        `for k in keys: add(k)` would book.

        Only a key's first appearance changes the tree's shape: its get walk
        visits the nodes above the empty slot, and the counted insert books
        its own visits and rotations. Every other add of a key at depth k
        costs 2(k + 1) visits, one walk for get and one for the overwrite.
        Batches shorter than REPLAY_CUTOFF apply this key by key. Longer
        ones use that between two inserts the shape is fixed, so each
        distinct (epoch, key) pair that is re-added needs one depth lookup.
        """
        visits = 0
        if len(keys) < REPLAY_CUTOFF:
            for key in keys.tolist() if isinstance(keys, np.ndarray) else keys:
                node, depth = self._find(key)
                if node is None:
                    visits += depth
                    self._root = self._insert(self._root, key, 1)
                    self._size += 1
                else:
                    node.value += 1
                    visits += 2 * (depth + 1)
            self.tally.element(visits)
            return
        keys = np.asarray(keys)
        uniq, first, inverse, totals = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        inverse = inverse.reshape(-1)
        uniq, totals = uniq.tolist(), totals.tolist()
        stored = [self._find(key)[0] for key in uniq]
        for node, total in zip(stored, totals):
            if node is not None:
                node.value += total
        inserts = np.sort(first[np.array([node is None for node in stored])])
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
        for epoch, at in enumerate(inverse[inserts].tolist() + [None]):
            while pair is not None and pair[0] == epoch:
                visits += 2 * (self._find(uniq[pair[1]])[1] + 1) * pair[2]
                pair = next(pairs, None)
            if at is not None:
                visits += self._find(uniq[at])[1]
                self._root = self._insert(self._root, uniq[at], totals[at])
                self._size += 1
        self.tally.element(visits)

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
