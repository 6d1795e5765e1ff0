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
len(keys) element ops. The treemap policy feeds the keys, in one pass, to
the add of a fresh SparseClassCounter, an AVL map whose costs follow the
keys actually stored. Its tree is five parallel lists indexed by node
number, with node 0 as the empty tree, and its search and insert are
loops, so nothing in this module recurses. These are the paper's two
classical bounds, O(h·d·(NM + N log N)) and O(h·d·N log N). The backend
changes operation counts but never the produced scores.
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
    report where the work happened. level is a cursor, not a count: it is
    the level of the node being scored, and where a build leaves it depends
    on the order it grew in, so tallies compare equal without it.
    """

    element_ops: int = 0
    maintenance_ops: int = 0
    level: int = field(default=0, compare=False)
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

        Each key is added through counter.add, and the tally's change is its
        cost. Only an insert (an add that returns 1) changes the tree's
        shape, so a stored key's cost holds until the next insert; it is
        cached till then and booked without another walk.
        """
        counter = SparseClassCounter()
        tally = counter.tally
        costs = {}
        visits = 0
        for key in keys.tolist() if isinstance(keys, np.ndarray) else keys:
            cost = costs.get(key)
            if cost is None:
                before = tally.element_ops
                if counter.add(key) == 1:
                    costs.clear()
                else:
                    costs[key] = tally.element_ops - before
            else:
                visits += cost
        counter.clear()
        return tally.element_ops + visits, tally.maintenance_ops


def make_backend(name, tally=None):
    if name == BASELINE:
        return DenseBackend(tally)
    if name == TREEMAP:
        return TreeMapBackend(tally)
    raise ValueError("unknown counter backend %r" % (name,))


class SparseClassCounter:
    """Ordered counter that stores only keys with non-zero counts.

    Backed by an AVL tree, so add and get visit O(log s) nodes and clearing
    visits exactly s nodes, where s is the number of stored keys. Every node
    visit is recorded in the attached OpTally, which is what the complexity
    probes measure. Keys may be any mutually ordered values (class indices,
    flat class-branch slots). The tree lives in parallel lists indexed by
    node number (key, count, left, right, height); node 0 is the empty
    tree, with height 0, count 0 and no key, so a missing child is link 0
    and node n holds the n-th key inserted since the last clear. get and add
    share one search loop, and add inserts by rebalancing each node on that
    search's path, bottom-up, so no method recurses. The treemap ledger is
    this map: TreeMapBackend.cost feeds a scan's keys to add on a fresh one
    and reads the tally.
    """

    def __init__(self, tally=None):
        self.tally = tally if tally is not None else OpTally()
        self._empty()

    def get(self, key):
        node, path = self._search(key)
        self.tally.element(len(path) + 1 if node else len(path))
        return self._count[node]

    def add(self, key):
        """Adds 1 to key's count and returns the new count.

        Books what a get followed by a second walk costs: to overwrite a
        stored key at depth k, 2(k + 1) visits; to insert a new key below k
        nodes, k + (k + 1) visits plus one per rotation, made bottom-up as
        the nodes above it are rebalanced.
        """
        node, path = self._search(key)
        count = self._count
        if node:
            self.tally.element(2 * len(path) + 2)
            count[node] += 1
            return count[node]
        self.tally.element(2 * len(path) + 1)
        keys, left, right = self._key, self._left, self._right
        node = len(keys)
        keys.append(key)
        count.append(1)
        left.append(0)
        right.append(0)
        self._height.append(1)
        for parent in reversed(path):
            if key < keys[parent]:
                left[parent] = node
            else:
                right[parent] = node
            node = self._rebalance(parent)
        self._root = node
        return 1

    def clear(self):
        self.tally.maintenance(len(self._key) - 1)
        self._empty()

    def _empty(self):
        self._key, self._count = [None], [0]
        self._left, self._right, self._height = [0], [0], [0]
        self._root = 0

    def _search(self, key):
        """(node holding key, or 0; the nodes above it, root first).
        Books nothing."""
        keys, left, right = self._key, self._left, self._right
        path = []
        node = self._root
        while node and key != keys[node]:
            path.append(node)
            node = left[node] if key < keys[node] else right[node]
        return node, path

    def _rebalance(self, node):
        """Refreshes node's height and, if one side is two taller, rotates
        that side's child up (after lifting the grandchild first when the
        child leans the other way); returns the subtree's root."""
        height, left, right = self._height, self._left, self._right
        lean = height[left[node]] - height[right[node]]
        if lean > 1:
            near, far = left, right
        elif lean < -1:
            near, far = right, left
        else:
            height[node] = 1 + max(height[left[node]], height[right[node]])
            return node
        child = near[node]
        if height[far[child]] > height[near[child]]:
            near[node] = self._lift(child, far, near)
        return self._lift(node, near, far)

    def _lift(self, node, near, far):
        """Rotates node's child on the near side into node's place and
        returns it; near and far are the link lists (left, right) or
        (right, left). Books one visit."""
        self.tally.element()
        height = self._height
        child = near[node]
        near[node] = far[child]
        far[child] = node
        height[node] = 1 + max(height[near[node]], height[far[node]])
        height[child] = 1 + max(height[near[child]], height[far[child]])
        return child
