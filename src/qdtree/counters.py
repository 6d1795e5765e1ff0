"""Counter backends for the split scanners.

The baseline backend uses dense arrays sized by the schema's class count, so
allocation, clearing and iteration all touch every slot whether or not the
class is present. The treemap backend uses the sparse ordered-map counter,
whose structure-sized costs scale with the keys actually stored. A
class-branch table for a T-way attribute is keyed by the flat slot
(j - 1) * T + w on both backends: one dense counter of M * T slots, or one
sparse map over the same integers. Both record their work in a shared
OpTally; the scanners are backend-agnostic, so the backend changes operation
counts but never the produced scores.

Both counters offer add_all(keys): it adds 1 to each key in order, returns
an array of each key's count right after its add, and books exactly the
operations that `for k in keys: add(k)` books, so array code can stand in
for the per-sample loop without touching the ledger.
"""

import numpy as np

from .criteria import OpTally, SparseClassCounter, running_counts

BASELINE = "baseline"
TREEMAP = "treemap"


class DenseCounter:
    """Array-backed counter over keys 1..size.

    Construction and clearing zero all `size` slots and full iteration scans
    them all; both are booked as maintenance. Per-key reads and updates cost
    one element touch.
    """

    def __init__(self, size, tally):
        self._size = size
        self._slots = [0] * (size + 1)
        self.tally = tally
        tally.maintenance(size)

    def _check(self, key):
        if not 1 <= key <= self._size:
            raise KeyError("key %r outside 1..%d" % (key, self._size))

    def get(self, key):
        self.tally.element()
        self._check(key)
        return self._slots[key]

    def add(self, key):
        """Adds 1 to key's count and returns the new count."""
        self.tally.element()
        self._check(key)
        self._slots[key] += 1
        return self._slots[key]

    def add_all(self, keys):
        """Adds 1 to each key in order and returns each key's running count
        after its add, booking one element touch per key as a loop of
        add(key) would. Raises KeyError before adding anything when a key
        is outside 1..size."""
        keys = np.asarray(keys, dtype=np.int64)
        outside = keys[(keys < 1) | (keys > self._size)]
        if len(outside):
            raise KeyError("key %r outside 1..%d" % (int(outside[0]), self._size))
        self.tally.element(len(keys))
        slots = np.array(self._slots, dtype=np.int64)
        counts = slots[keys] + running_counts(keys)
        slots += np.bincount(keys, minlength=self._size + 1)
        self._slots = slots.tolist()
        return counts

    def items(self):
        self.tally.maintenance(self._size)
        return [(k, v) for k, v in enumerate(self._slots) if v]

    def clear(self):
        self.tally.maintenance(self._size)
        self._slots = [0] * (self._size + 1)


class DenseBackend:
    """Counter factory paying structure costs proportional to the class count."""

    def __init__(self, class_count, tally=None):
        self.class_count = class_count
        self.tally = tally if tally is not None else OpTally()

    def class_counter(self):
        return DenseCounter(self.class_count, self.tally)

    def pair_counter(self, branch_count):
        return DenseCounter(self.class_count * branch_count, self.tally)


class TreeMapBackend:
    """Counter factory whose structure costs follow the stored keys only."""

    def __init__(self, tally=None):
        self.tally = tally if tally is not None else OpTally()

    def class_counter(self):
        return SparseClassCounter(self.tally)

    def pair_counter(self, branch_count):
        return SparseClassCounter(self.tally)


def make_backend(name, class_count, tally=None):
    if name == BASELINE:
        return DenseBackend(class_count, tally)
    if name == TREEMAP:
        return TreeMapBackend(tally)
    raise ValueError("unknown counter backend %r" % (name,))
