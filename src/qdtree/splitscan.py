"""Per-attribute split search.

Real attributes are scanned in sorted order with prefix and suffix entropy
tables; discrete attributes are evaluated in one incremental pass. Both
scanners keep running counts in plain arrays plus unnormalized entropy sums
H (the sum of c * log2(c) over the counts), so each sample replaces exactly
one term per sum, and an entropy over n samples is log2(n) - H/n. A count
that reaches c grows H by step[c] = c log2(c) - (c - 1) log2(c - 1), read
from one grow-on-demand table that every scan shares (CountTables); it holds
the very floats a loop computing both terms with math.log2 would subtract.
The discrete pass keeps three such sums over the z samples: one over class
counts, one over branch sizes N_w and one over class-branch pair counts. The
first gives the parent entropy, the second the split potential, and their
weighted branch entropy sum_w (N_w/z) * I_w is (H_sizes - H_pairs) / z.
A view no level batch holds has all its discrete attributes scored in one
pass (discrete_scores), booked with one charge at the tally's current
level: one gather of their stacked columns, and one class sum and label key
cost (see counters), which the charge counts once per attribute. Where an
attribute has one value v on the view (as each ancestor's split attribute
has) or the labels y are all distinct (class sum 0.0), the pair keys
(y - 1) * T + v order as the labels do, and a policy costs keys only by
their number and order: the pairs cost what the labels cost and are never
built, and distinct labels' pair sum is 0.0.
The backend only books what its counting structure would have cost for the
keys of each scan, so it changes operation tallies but never the
arithmetic: the stream of floating-point operations is identical for every
backend.

The real scan is array code. Each real column is ranked once per dataset,
densely (equal values share a rank), in the narrowest unsigned dtype, and
kept beside the stacked discrete columns in one per-dataset cache, as SLIQ
and SPRINT sort each attribute once per dataset. A view is ordered by its
rows' ranks with one stable 16-bit radix pass per 16 bits of that dtype,
low bits first: one pass up to 2**16 distinct values. That is the stable
order of the view's values, ties in view order, with no comparison sort
per node. One more stable sort gives every sample's running class count,
and the suffix scan's counts are those mirrored; each scan direction's
labels are booked with their counts, which spare the treemap ledger most
of its replay (see counters). The step, log2(u) and split potential tables
are built with math.log2, because np.log2 differs from it in the last bit
for some inputs. The steps are accumulated with cumsum, which adds left to
right as a per-sample loop does, so every score is bit-identical to that
loop's.

A classical build can also score the discrete attributes of a whole tree
level at once (LevelBatch), one attribute at a time over the level's
concatenated rows. Stable sorts on segment-offset keys, (view, class),
(view, value) and (view, class-branch pair), give each sample the running
count the per-view loop reaches, so it adds the same step; a weighted
bincount sums each view's steps in sample order from 0.0, as the loop
does. The loop's max(0.0, x) becomes np.maximum, log2(z) comes from the
same table, and the ratio still goes through gain_ratio, so every score is
the loop's to the bit. The batch also books its level: it charges the
scans of every view it holds once per discrete attribute, what the loop
would book for them, costed by the backend's sliced_key_cost on the views'
slices of the same key streams; a constant attribute's pair keys cost what
the view's class keys cost. Which views a level hands it is the builder's
stopping rule, not the batch's.
Both kernels give the same table, {attribute: (SplitScore, SplitTest) or
None}: discrete_scores returns it, and LevelBatch.scores returns it for
each view the batch holds; process_attribute reads a score from it and
books nothing. The batch pays a fixed cost per level and attribute, so
small levels (see batch_level) are scored view by view.
"""

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criteria import POTENTIAL_EPSILON, gain_ratio, running_counts, xlog2x
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

    labels is the class column in the stable sort order of values. With z
    samples, prefix_info[u] is the class entropy of the first u sorted
    samples and suffix_info[u] the entropy of samples u..z (both 1-based), so
    prefix_info[z] and suffix_info[1] describe the whole subset.
    """

    values: np.ndarray
    labels: np.ndarray
    prefix_info: np.ndarray
    suffix_info: np.ndarray


class CountTables:
    """Per-count tables shared by every scan, grown on demand and never
    shrunk: step_array[c] = c log2(c) - (c - 1) log2(c - 1), the amount a
    running sum H grows by when a count reaches c, and log2c_array[c] =
    log2(c), both for c in 1..n with 0.0 at c = 0. Every value is computed
    with math.log2, exactly as a per-sample loop computing xlog2x(c) -
    xlog2x(c - 1) would. `step` is the same table as a list, made only when
    a per-sample loop first asks for it."""

    def __init__(self):
        self.step_array = self.log2c_array = _frozen([0.0])
        self._step = None

    def cover(self, n):
        """Grows the tables, at least doubling them, until they cover counts
        0..n, and returns them."""
        size = len(self.step_array)
        if n >= size:
            counts = range(size, max(n + 1, 2 * size))
            xlog2c = [xlog2x(c) for c in range(size - 1, counts.stop)]
            steps = [cur - prev for prev, cur in zip(xlog2c, xlog2c[1:])]
            logs = [math.log2(c) for c in counts]
            self.step_array = _frozen(np.concatenate((self.step_array, steps)))
            self.log2c_array = _frozen(np.concatenate((self.log2c_array, logs)))
            self._step = None
        return self

    @property
    def step(self):
        if self._step is None:
            self._step = self.step_array.tolist()
        return self._step


def _frozen(values):
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


_TABLES = CountTables()


@lru_cache(maxsize=1)
def _scan_tables(z):
    """Tables shared by every real scan over z samples, built with math.log2
    (np.log2 is not bit-identical to it): for each cut u in 1..z-1 the
    fractions u/z and 1 - u/z and the split potential
    -(u/z log2(u/z) + (1 - u/z) log2(1 - u/z))."""
    left = np.arange(1, z) / z
    right = 1.0 - left
    log_left, log_right = (
        np.fromiter(map(math.log2, f.tolist()), np.float64, z - 1) for f in (left, right)
    )
    potential = -(left * log_left + right * log_right)
    return _frozen(left), _frozen(right), _frozen(potential)


def _information_table(counts):
    """info[u] is the class entropy of the first u samples, given each
    sample's running class count.

    Each sample adds the step of its count to the running sum h, and cumsum
    adds them left to right as a loop would.
    """
    z = len(counts)
    tables = _TABLES.cover(z)
    h = np.cumsum(tables.step_array[counts])
    info = tables.log2c_array[1 : z + 1] - h / np.arange(1, z + 1)
    return np.concatenate(([0.0], np.where(info > 0.0, info, 0.0)))


_DERIVED = weakref.WeakKeyDictionary()


def _derived(base, key, make):
    """make(), computed once per dataset and key and kept while the dataset
    lives. A Dataset's arrays are read-only, so what is derived from them
    cannot go stale."""
    entry = _DERIVED.setdefault(base, {})
    if key not in entry:
        entry[key] = make()
    return entry[key]


def _value_ranks(base, attr):
    """Each row's dense rank among the distinct values of real attribute
    attr, 0 for the smallest, in the narrowest unsigned dtype that holds
    them. Equal values, -0.0 and 0.0 among them, share a rank."""

    def ranks():
        distinct, inverse = np.unique(base.columns[attr], return_inverse=True)
        return inverse.astype(np.min_scalar_type(len(distinct) - 1))

    return _derived(base, attr, ranks)


def _rank_order(ranks):
    """np.argsort(ranks, kind="stable") for unsigned integer ranks, by one
    stable sort of 16-bit digits per 16 bits of their dtype, low digits
    first: numpy sorts 16-bit integers stably by radix, and each pass keeps
    the order of the passes before it among equal digits."""
    order = np.argsort(ranks.astype(np.uint16, copy=False), kind="stable")
    for shift in range(16, 8 * ranks.itemsize, 16):
        digits = (ranks[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
    return order


def build_real_scan(view, attr, backend):
    """Sorts the view by one real attribute and fills the entropy tables.

    The view's rows are ordered by their values' dense ranks in the dataset
    (see _value_ranks and _rank_order). Equal values share a rank and keep
    their view order, so this is np.argsort(view.values(attr),
    kind="stable") for any view, whatever the order of its indices.
    The suffix table reads the labels backwards, and the running count of
    a sample seen from the end is its class total minus its count from the
    front, plus one. Each scan direction is booked with its running counts.
    """
    rows = view.indices[_rank_order(_value_ranks(view.base, attr)[view.indices])]
    labels = view.base.labels[rows]
    m = view.base.schema.class_count
    counts = running_counts(labels, m + 1)
    backwards = (np.bincount(labels)[labels] - counts + 1)[::-1]
    backend.book(labels, m, counts)
    backend.book(labels[::-1], m, backwards)
    return RealScanState(
        values=view.base.columns[attr][rows],
        labels=labels,
        prefix_info=_information_table(counts),
        suffix_info=np.concatenate(([0.0], _information_table(backwards)[::-1])),
    )


def _candidate_arrays(view, attr, backend):
    """Thresholds, gains and potentials of every legal cut, in ascending
    threshold order: the midpoints between adjacent distinct sorted values,
    or the lower value where the midpoint rounds up to the upper one."""
    state = build_real_scan(view, attr, backend)
    values = state.values
    z = len(values)
    left, right, potential = _scan_tables(z)
    cut = np.flatnonzero(values[:-1] != values[1:])
    gains = (
        state.prefix_info[z]
        - left[cut] * state.prefix_info[cut + 1]
        - right[cut] * state.suffix_info[cut + 2]
    )
    low, high = values[cut], values[cut + 1]
    with np.errstate(over="ignore"):
        thetas = (low + high) / 2.0
    huge = ~np.isfinite(thetas)
    if huge.any():
        # the sum of two huge finite values can overflow; their halves cannot
        thetas[huge] = low[huge] / 2.0 + high[huge] / 2.0
    # between two adjacent floats the midpoint can round up to the upper
    # one, and x <= theta would then send both values left
    return np.where(thetas < high, thetas, low), gains, potential[cut]


def real_split_candidates(view, attr, backend):
    """Scores every legal threshold for one real attribute.

    Returns a list of (theta, SplitScore) in ascending threshold order.
    """
    thetas, gains, potentials = _candidate_arrays(view, attr, backend)
    return [
        (theta, gain_ratio(g, p))
        for theta, g, p in zip(thetas.tolist(), gains.tolist(), potentials.tolist())
    ]


def scan_real_attribute(view, attr, backend):
    """Best threshold split of one real attribute, or None when every value
    is identical. Ties keep the smallest threshold, and when no cut is valid
    the first one stands."""
    thetas, gains, potentials = _candidate_arrays(view, attr, backend)
    if not len(thetas):
        return None
    valid = potentials > POTENTIAL_EPSILON
    best = int(np.argmax(np.where(valid, gains / potentials, -np.inf)))
    score = gain_ratio(float(gains[best]), float(potentials[best]))
    return score, SplitTest(attr, REAL, theta=float(thetas[best]))


def _discrete_cost(backend, m, t, class_keys, pair_keys, scans=1):
    """(element, maintenance) ops of scans scans of one discrete attribute,
    given summed class and pair key costs; its T branch sizes are dense."""
    slots = backend.slot_cost(m) + backend.slot_cost(m * t) + 2 * t
    return class_keys[0] + pair_keys[0], class_keys[1] + pair_keys[1] + scans * slots


def _discrete_columns(base):
    """The discrete attributes of a dataset, the SplitTest of each, and their
    columns stacked one per row for one gather per view."""

    def stack():
        attrs = [j for j, a in enumerate(base.schema.attributes) if a.kind == DISCRETE]
        tests = [SplitTest(j, DISCRETE, branch_count=base.schema.domain_size(j)) for j in attrs]
        return attrs, tests, np.stack([base.columns[j] for j in attrs])

    return _derived(base, DISCRETE, stack)


def _scan_discrete(view, backend, pick=slice(None)):
    """{attr: process_discrete_attribute's result} for the discrete
    attributes that pick slices out of _discrete_columns, on one view, all
    booked with one charge at the tally's current level."""
    attrs, tests, matrix = _discrete_columns(view.base)
    m = view.base.schema.class_count
    labels = view.labels().tolist()
    z = len(labels)
    step = _TABLES.cover(z).step
    counts = [0] * (m + 1)
    class_h = 0.0
    for y in labels:
        c = counts[y] = counts[y] + 1
        class_h += step[c]
    class_keys = backend.key_cost(labels)
    costs, scans = [], {}
    for attr, test, values in zip(attrs[pick], tests[pick], matrix[pick, view.indices].tolist()):
        t = test.branch_count
        sizes = [0] * (t + 1)
        size_h = 0.0
        for v in values:
            c = sizes[v] = sizes[v] + 1
            size_h += step[c]
        # sizes[0] stays 0, so t + 1 - sizes.count(0) branches are non-empty
        split = t + 1 - sizes.count(0) > 1
        # the pair keys of a constant attribute order as the labels do, and
        # so do those of labels that are all distinct (class_h 0.0), whose
        # pair counts are all 1: their pairs cost what the labels cost
        pair_keys, pair_h = class_keys, 0.0
        if split and class_h:
            pairs = [(y - 1) * t + v for v, y in zip(values, labels)]
            pair_keys = backend.key_cost(pairs)
            pair_counts = [0] * (m * t + 1)
            for k in pairs:
                c = pair_counts[k] = pair_counts[k] + 1
                pair_h += step[c]
        costs.append(_discrete_cost(backend, m, t, class_keys, pair_keys))
        scans[attr] = None
        if split:
            parent = max(0.0, math.log2(z) - class_h / z)
            potential = max(0.0, math.log2(z) - size_h / z)
            scans[attr] = gain_ratio(parent - (size_h - pair_h) / z, potential), test
    backend.charge(*map(sum, zip(*costs)))
    return scans


def process_discrete_attribute(view, attr, backend):
    """discrete_scores' one-attribute case: the multiway evaluation of a
    discrete attribute, or None when every sample carries the same value."""
    i = _discrete_columns(view.base)[0].index(attr)
    return _scan_discrete(view, backend, slice(i, i + 1))[attr]


def discrete_scores(view, backend):
    """{attr: (SplitScore, SplitTest) or None} for every discrete attribute
    of view, scanned in one pass and booked with one charge, or {} when the
    view holds fewer than two rows or its schema no discrete attribute."""
    if len(view) < 2 or all(a.kind != DISCRETE for a in view.base.schema.attributes):
        return {}
    return _scan_discrete(view, backend)


# A level is batched when rows + BATCH_VIEW_ROWS * views reaches
# BATCH_MIN_ROWS. Scoring 12 discrete attributes over 64 classes and
# reading out every view's score table (best of 30 to 60 on a shared
# 2-vCPU Xeon VM, numpy 2.4), the one-view pass took about 28 us per view
# plus 1.6 us per row, and the batch, which books its level as it is made,
# 410 to 530 us per level plus 10 us per view plus 0.55 us per row; every
# term scales with the attribute count. A single 3-row view took 0.03 to
# 0.07 ms view by view and 0.36 to 0.73 ms batched; 16 views of 3 rows
# took 0.41 to 0.58 ms and 0.50 to 0.82 ms, 256 views of 3 rows 7.4 to
# 8.0 ms and 3.3 to 3.5 ms, one 1000-row view 1.6 ms and 0.95 ms. That
# puts the crossover near rows + 17 * views = 450, but in interleaved
# in-process runs those constants built no faster than these, and always
# batching cost 40 to 60% on small builds.
BATCH_VIEW_ROWS = 50
BATCH_MIN_ROWS = 700

_INT64_MAX = np.iinfo(np.int64).max


class LevelBatch:
    """The discrete-attribute scores of views of one tree level, each
    attribute scanned over all of them by one numpy kernel.

    The batch books the scans of every view it holds as it is made, as
    discrete_scores books one view's, at the tally's current level, with
    one charge per attribute over the views' slices of the key streams.
    """

    def __init__(self, views, backend):
        schema = views[0].base.schema
        m = schema.class_count
        k = len(views)
        self._position = {view: i for i, view in enumerate(views)}
        z = np.array([len(view) for view in views], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(z)))
        rows = np.concatenate([view.indices for view in views])
        labels = views[0].base.labels[rows]
        seg = np.repeat(np.arange(k, dtype=np.int64), z)
        steps = _TABLES.cover(int(z.max())).step_array
        counts = running_counts(seg * (m + 1) + labels, k * (m + 1))
        # bincount adds each weight to its view's zeroed double in sample
        # order, as the per-view loop adds h += step from 0.0
        class_h = np.bincount(seg, steps[counts], k)
        log2z = _TABLES.log2c_array[z]
        parent = np.maximum(0.0, log2z - class_h / z)
        starts, ends = bounds[:-1], bounds[1:]
        class_keys = backend.sliced_key_cost(labels, starts, ends)
        self._scans = {}
        attrs, tests, matrix = _discrete_columns(views[0].base)
        for attr, test, values in zip(attrs, tests, matrix[:, rows]):
            t = test.branch_count
            # the dense counts a per-view scan keeps: a domain too large to
            # allocate or index them is refused here, before any partition
            [0] * (t + 1)
            if k * (m * t + 1) > _INT64_MAX:
                raise OverflowError("a discrete domain of %d values is too large" % (t,))
            sizes = running_counts(seg * (t + 1) + values, k * (t + 1))
            split = np.bincount(seg[sizes == 1], minlength=k) > 1
            if split.any():
                [0] * (m * t + 1)
            pairs = (labels - 1) * t + values
            pair_counts = running_counts(seg * (m * t + 1) + pairs, k * (m * t + 1))
            size_h = np.bincount(seg, steps[sizes], k)
            pair_h = np.bincount(seg, steps[pair_counts], k)
            potential = np.maximum(0.0, log2z - size_h / z)
            gain = parent - (size_h - pair_h) / z
            self._scans[attr] = (split.tolist(), gain.tolist(), potential.tolist(), test)
            pair_keys = backend.sliced_key_cost(pairs, starts, ends)
            backend.charge(*_discrete_cost(backend, m, t, class_keys, pair_keys, k))

    def scores(self, view):
        """The score table of view, {attr: (SplitScore, SplitTest) or None}
        over its discrete attributes as discrete_scores gives it, read from
        the batch, which booked its cost when it was made; None when the
        batch does not hold view."""
        i = self._position.get(view)
        if i is None:
            return None
        return {
            attr: (gain_ratio(gain[i], potential[i]), test) if split[i] else None
            for attr, (split, gain, potential, test) in self._scans.items()
        }


def batch_level(views, backend):
    """A LevelBatch over the views of one level, booked on backend, or None
    when the schema has no discrete attribute or the level is small enough
    that the per-view scans are faster."""
    if not views or all(a.kind != DISCRETE for a in views[0].base.schema.attributes):
        return None
    if sum(map(len, views)) + BATCH_VIEW_ROWS * len(views) < BATCH_MIN_ROWS:
        return None
    return LevelBatch(views, backend)


def process_attribute(view, attr, backend, scores=None):
    """Scores one attribute on a view.

    This is the scoring function handed both to the classical argmax and to
    the quantum-search chooser. Returns (SplitScore, SplitTest) or None when
    the attribute admits no candidate split on this view. A discrete score
    is read from scores, the table of discrete_scores or LevelBatch.scores,
    when it holds attr; that table was booked as it was made, so reading it
    books nothing.
    """
    if scores and attr in scores:
        return scores[attr]
    if len(view) < 2:
        return None
    if view.base.schema.is_real(attr):
        return scan_real_attribute(view, attr, backend)
    return process_discrete_attribute(view, attr, backend)
