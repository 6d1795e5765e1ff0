"""Ledger policies for the split scanners.

The scanners keep their own running counts in plain arrays; a backend only
books, in a shared OpTally, what its counting structure would have cost.
Every scan is a batch of +1 adds to a fresh counter that is cleared at the
end. cost(keys, slots) is that batch's (element, maintenance) ops and
book(keys, slots) charges them at the tally's current level; a scanner that
adds one key stream several times computes its cost once and charges it
each time. slots is the dense key range: M for a class counter, M * T for
the class-branch table of a T-way attribute (keyed by the flat slot
(j - 1) * T + w). The baseline policy is a dense array, so allocation and
clearing touch every slot and each add one: 2 * slots maintenance and
len(keys) element ops. The treemap policy replays
the keys, in one pass, through a SparseClassCounter, an AVL map whose costs
follow the keys actually stored. These are the paper's two classical bounds,
O(h·d·(NM + N log N)) and O(h·d·N log N). The backend changes operation
counts but never the produced scores.
"""

from dataclasses import dataclass, field

import numpy as np

BASELINE = "baseline"
TREEMAP = "treemap"


@dataclass
class OpTally:
    """Operation counts for counter structures.

    element_ops counts per-key work (tree-node visits, array-slot touches).
    maintenance_ops counts structure-sized work: allocation and clearing.
    Maintenance is also bucketed by the current tree level so builds can
    report where the work happened.
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


class _LedgerPolicy:
    """Charges the cost(keys, slots) a subclass defines to a shared tally."""

    def __init__(self, tally=None):
        self.tally = tally if tally is not None else OpTally()

    def book(self, keys, slots):
        """Books a scan's cost at the tally's current level."""
        self.charge(*self.cost(keys, slots))

    def charge(self, element, maintenance):
        """Books a cost that cost() computed earlier, possibly for another
        scan that added the same keys."""
        self.tally.element(element)
        self.tally.maintenance(maintenance)


class DenseBackend(_LedgerPolicy):
    """Books a scan as a dense array of `slots` counters."""

    def cost(self, keys, slots):
        """(element, maintenance) ops: allocate and clear all slots, and
        touch one slot per key."""
        return len(keys), 2 * slots


class TreeMapBackend(_LedgerPolicy):
    """Books a scan as an ordered map holding only the keys it saw."""

    def cost(self, keys, slots):
        """(element, maintenance) ops of adding every key to a fresh
        SparseClassCounter and clearing it, visit for visit.

        Only a key's first appearance changes the tree's shape: its get walk
        visits the nodes above the empty slot, and the counted insert books
        its own visits and rotations. Every other add of a key at depth k
        costs 2(k + 1) visits, one walk for get and one for the overwrite;
        that cost holds until the next insert, so it is cached till then.
        """
        counter = SparseClassCounter()
        costs = {}
        visits = 0
        for key in keys.tolist() if isinstance(keys, np.ndarray) else keys:
            cost = costs.get(key)
            if cost is None:
                node, depth = counter._find(key)
                if node is None:
                    visits += depth
                    counter._root = counter._insert(counter._root, key, 1)
                    counter._size += 1
                    costs.clear()
                    continue
                cost = costs[key] = 2 * (depth + 1)
            visits += cost
        counter.clear()
        return counter.tally.element_ops + visits, counter.tally.maintenance_ops


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

    Backed by an AVL tree, so add and get visit O(log s) nodes and clearing
    visits exactly s nodes, where s is the number of stored keys. Every node
    visit is recorded in the attached OpTally, which is what the complexity
    probes measure. Keys may be any mutually ordered values (class indices,
    flat class-branch slots). This is the reference map for the treemap
    ledger: TreeMapBackend.cost replays a scan into a fresh one in a single
    pass and counts what a loop of add(key) would.
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
