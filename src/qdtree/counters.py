"""Ledger policies for the split scanners.

The scanners keep their own running counts in plain arrays; a backend only
books, in a shared OpTally, what its counting structure would have cost.
Every scan is a batch of +1 adds to a fresh counter that is cleared at the
end. cost(keys, slots) is that batch's (element, maintenance) ops and
book(keys, slots) charges them at the tally's current level; a scanner that
adds one key stream several times computes its cost once and charges it
each time. slots is the dense key range: M for a class counter, M * T for
the class-branch table of a T-way attribute (keyed by the flat slot
(j - 1) * T + w). A cost is the sum of two parts, key_cost(keys) and
slot_cost(slots); sliced_key_cost sums the key costs of many slices of one
key array. A scanner that has the keys' running counts (how often each key
has occurred so far) may pass them along with the keys. The baseline
policy is a dense array, so allocation and clearing touch every slot and
each add one: len(keys) element ops, and 2 * slots maintenance. The
treemap policy is an AVL map whose costs follow the keys actually stored,
so its slot cost is 0; its key cost replays the keys on a bare tree that
keeps no counts, booking what an add to a fresh AVL map would book for
each key (every node visit and rotation), and one maintenance op per
stored key for the clear. Given running counts, it replays only the head
of the stream, up to the last key whose count is 1 (the last insert): the
tree stops changing there, so each later key costs 2(depth + 1) at its
depth in the final tree, and the tail is summed with one gather from a
table of those costs, made by one walk of that tree. Either policy costs a
key stream only by its length and by how its keys compare, so two streams
whose keys order alike have one key cost; the running counts are a
function of the keys, so they change no cost. The tree is parallel lists
indexed by node number, with node 0 as the empty tree, and _insert puts
each new key in: it rebalances bottom-up and stops at the first node whose
height does not change, or after its one single or double rotation.
Nothing in this module recurses. These are the paper's two classical
bounds, O(h·d·(NM + N log N)) and O(h·d·N log N). The backend changes
operation counts but never the produced scores.
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
    """Charges a scan's cost to a shared tally. A subclass defines its two
    parts: key_cost(keys, counts=None), the (element, maintenance) ops of
    the keys, given their running counts when the caller has them, and
    slot_cost(slots), the maintenance of the dense key range; and
    sliced_key_cost(keys, starts, ends), their sum over many slices."""

    def __init__(self, tally=None):
        self.tally = tally if tally is not None else OpTally()

    def cost(self, keys, slots, counts=None):
        """(element, maintenance) ops of one scan; counts, when the caller
        has them, are the keys' running counts (see key_cost)."""
        element, maintenance = self.key_cost(keys, counts)
        return element, maintenance + self.slot_cost(slots)

    def book(self, keys, slots, counts=None):
        """Books a scan's cost at the tally's current level."""
        self.charge(*self.cost(keys, slots, counts))

    def charge(self, element, maintenance):
        """Books a cost that cost() computed earlier, possibly for another
        scan that added the same keys."""
        self.tally.element(element)
        self.tally.maintenance(maintenance)


class DenseBackend(_LedgerPolicy):
    """Books a scan as a dense array of `slots` counters."""

    def key_cost(self, keys, counts=None):
        """One slot touched per key; the counts are not needed."""
        return len(keys), 0

    def slot_cost(self, slots):
        """Allocating and clearing every slot."""
        return 2 * slots

    def sliced_key_cost(self, keys, starts, ends):
        """The summed key cost of the slices keys[lo:hi], for lo and hi in
        the index arrays starts and ends: one slot per key."""
        return int((ends - starts).sum()), 0


class TreeMapBackend(_LedgerPolicy):
    """Books a scan as an ordered map holding only the keys it saw."""

    def key_cost(self, keys, counts=None):
        """(element, maintenance) ops of adding every key to a fresh AVL
        map and clearing it, visit for visit.

        An add is a search followed by a second walk: to a stored key at
        depth k, 2(k + 1) visits; to insert a new key below k nodes,
        k + (k + 1) visits plus one per rotation. The keys are replayed on
        a bare tree that keeps no counts. Only an insert changes the tree's
        shape, so a stored key's cost holds until the next insert; it is
        cached till then and summed without another walk.

        counts, when the caller has them, are the keys' running counts
        (criteria.running_counts: counts[i] is how often keys[i] occurs in
        keys[:i + 1]), so they add nothing the keys do not say. A count of
        1 is an insert, so after the last one the tree stops changing:
        only the head up to that key is replayed, and each key of the tail
        costs 2(depth + 1) at its depth in the final tree, summed by one
        gather from a table indexed by key (keys passed with counts are
        integer counter slots).
        """
        n = len(keys)
        head = n
        if counts is not None and n:
            head = n - int(np.argmax(np.asarray(counts)[::-1] == 1))
        tree_keys, left, right, height = [None], [0], [0], [0]
        root = 0
        costs = {}
        get = costs.get
        visits = 0
        for key in keys[:head].tolist() if isinstance(keys, np.ndarray) else keys[:head]:
            cost = get(key)
            if cost is not None:
                visits += cost
                continue
            path = []
            node = root
            while node:
                stored = tree_keys[node]
                if key == stored:
                    break
                path.append(node)
                node = left[node] if key < stored else right[node]
            if node:
                cost = costs[key] = 2 * len(path) + 2
                visits += cost
            else:
                root, rotations = _insert(key, path, tree_keys, left, right, height)
                visits += 2 * len(path) + 1 + rotations
                costs.clear()
        if head < n:
            lo, table = _depth_costs(root, tree_keys, left, right)
            visits += int(table[np.asarray(keys[head:]) - lo].sum())
        return visits, len(tree_keys) - 1

    def sliced_key_cost(self, keys, starts, ends):
        """The summed key cost of the slices keys[lo:hi], for lo and hi in
        the index arrays starts and ends: key_cost, slice by slice."""
        keys = keys.tolist()
        costs = [self.key_cost(keys[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())]
        return tuple(map(sum, zip(*costs))) or (0, 0)

    def slot_cost(self, slots):
        """Nothing: the map's costs follow the keys it stores."""
        return 0


def make_backend(name, tally=None):
    if name == BASELINE:
        return DenseBackend(tally)
    if name == TREEMAP:
        return TreeMapBackend(tally)
    raise ValueError("unknown counter backend %r" % (name,))


def _insert(key, path, keys, left, right, height):
    """Puts a new node for key below path, the nodes a search for key
    passed (root first), and rebalances bottom-up; returns (the tree's
    root, the rotations made).

    The new node is numbered len(keys). Each node on the path gets its
    height refreshed, and the walk stops at the first whose height does not
    change, since none above it can change either. A node two taller on one
    side has that side's child rotated up, after lifting the grandchild
    first when the child leans the other way; that gives the subtree back
    its height from before the insert, so the walk stops there too. These
    are the rotations a walk up the whole path would make (Adelson-Velsky
    and Landis 1962; Knuth, TAOCP vol. 3, 6.2.3).
    """
    child = len(keys)
    keys.append(key)
    left.append(0)
    right.append(0)
    height.append(1)
    if not path:
        return child, 0
    i = len(path) - 1
    node = path[i]
    if key < keys[node]:
        left[node] = child
    else:
        right[node] = child
    while True:
        lower, upper = height[left[node]], height[right[node]]
        if lower > upper + 1:
            near, far = left, right
        elif upper > lower + 1:
            near, far = right, left
        else:
            grown = 1 + (lower if lower > upper else upper)
            if grown == height[node]:
                return path[0], 0
            height[node] = grown
            if not i:
                return node, 0
            i -= 1
            node = path[i]
            continue
        child = near[node]
        rotations = 1
        if height[far[child]] > height[near[child]]:
            near[node] = _lift(child, far, near, height)
            rotations = 2
        top = _lift(node, near, far, height)
        if not i:
            return top, rotations
        above = path[i - 1]
        if left[above] == node:
            left[above] = top
        else:
            right[above] = top
        return path[0], rotations


def _depth_costs(root, keys, left, right):
    """(lo, table): table[key - lo] is the 2(depth + 1) visits an add to a
    key stored in the tree below root costs, for integer keys; one walk,
    level by level."""
    stored, costs = [], []
    level, cost = [root], 2
    while level:
        stored += [keys[node] for node in level]
        costs += [cost] * len(level)
        level = [child for node in level for child in (left[node], right[node]) if child]
        cost += 2
    stored = np.array(stored)
    lo = stored.min()
    table = np.zeros(stored.max() - lo + 1, dtype=np.int64)
    table[stored - lo] = costs
    return lo, table


def _lift(node, near, far, height):
    """Rotates node's child on the near side into node's place and returns
    it; near and far are the link lists (left, right) or (right, left)."""
    child = near[node]
    near[node] = far[child]
    far[child] = node
    lower, upper = height[near[node]], height[far[node]]
    height[node] = grown = 1 + (lower if lower > upper else upper)
    lower = height[near[child]]
    height[child] = 1 + (lower if lower > grown else grown)
    return child
