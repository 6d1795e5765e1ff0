"""The object-node AVL counter that qdtree.counters.SparseClassCounter
replaced, kept as the reference its parallel-list tree is checked against:
each node is an object with key, value, left, right and height, and a
missing child is None. It books every visit, rotation and cleared key the
same way, so both must give the same counts and the same ledgers for any
key stream.
"""

from qdtree.counters import OpTally


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
    flat class-branch slots). get and add share one search loop, and add
    inserts by rebalancing each node on that search's path, bottom-up, so
    no method recurses. The treemap ledger must book, for a scan's keys,
    what adding them to a fresh one and clearing it books here.
    """

    def __init__(self, tally=None):
        self._root = None
        self._size = 0
        self.tally = tally if tally is not None else OpTally()

    def get(self, key):
        node, path = self._search(key)
        if node is None:
            self.tally.element(len(path))
            return 0
        self.tally.element(len(path) + 1)
        return node.value

    def add(self, key):
        """Adds 1 to key's count and returns the new count.

        Books what a get followed by a second walk costs: to overwrite a
        stored key at depth k, 2(k + 1) visits; to insert a new key below k
        nodes, k + (k + 1) visits plus one per rotation, made bottom-up as
        the nodes above it are rebalanced.
        """
        node, path = self._search(key)
        if node is not None:
            self.tally.element(2 * len(path) + 2)
            node.value += 1
            return node.value
        self.tally.element(2 * len(path) + 1)
        node = _AvlNode(key, 1)
        for parent in reversed(path):
            if key < parent.key:
                parent.left = node
            else:
                parent.right = node
            node = self._rebalance(parent)
        self._root = node
        self._size += 1
        return 1

    def clear(self):
        self.tally.maintenance(self._size)
        self._root = None
        self._size = 0

    def _search(self, key):
        """(node holding key, or None; the nodes above it, root first).
        Books nothing."""
        path = []
        node = self._root
        while node is not None and key != node.key:
            path.append(node)
            node = node.left if key < node.key else node.right
        return node, path

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
