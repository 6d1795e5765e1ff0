"""Simulated quantum maximum finding with exact oracle-query accounting.

The threshold search is simulated at the success-probability level, not the
state-vector level. Each amplified inner search for "an index scoring above
the current threshold" draws an iteration count m, is charged 2m+1 oracle
queries, and succeeds with probability sin^2((2m+1)*asin(sqrt(t/K))) where t
is the number of indices strictly above the threshold. durr_hoyer_max()
plays the harness in one flat round loop: it sizes t by bisecting the sorted
scores (again only when the threshold moves), draws the hit, and then draws
the measured index uniformly from the marked set on a hit or from the rest
otherwise. Each round reads m_max from a schedule computed once per K, and
the budget is counted in whole queries. The algorithm itself sees only
counted evaluate() results, and the rounds' 2m charges are booked as one
charge() when the search ends. This reproduces the observable contract of
the search (success odds, query counts, budget) at classical cost. Sizing
the marked set needs every score, so the oracle is a counted view over a
score list fixed before the search: the caller scores each index exactly
once, however many queries the search then spends.

Draw contract: a search reads its rng only through rng.random() (one per
round, for the hit) and rng.getrandbits(), drawing every uniform index
exactly as CPython's randrange() does: _below() for the start index, inline
in the rounds. The hit odds come from a row per marked-set size that the
oracle computes once and keeps, so every repeat over the same scores shares
it.

Indices run 0..K-1 throughout.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

#: m_max growth factor per failed inner search.
GROWTH = 8.0 / 7.0


def query_budget(size):
    """Hard per-search query allowance: 22.5*sqrt(K) + 1.4*log2(K)^2."""
    if size < 1:
        raise ValueError("need at least one candidate")
    lg = math.log2(size)
    return 22.5 * math.sqrt(size) + 1.4 * lg * lg


@dataclass
class SearchStats:
    """Observable accounting for one search (or one batch of repeats).

    succeeded is harness knowledge: whether the returned index attains the
    true maximum (order-equality, so any member of the argmax set counts).
    """

    oracle_queries: int = 0
    grover_iterations: int = 0
    succeeded: bool = False


def _below(bits, n):
    """Uniform index in 0..n-1, for n >= 1, drawn through bits = rng.getrandbits.

    Draws exactly the words CPython's rng.randrange(n) draws: n.bit_length()
    bits at a time, redrawn until the value is below n.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


class ScoringOracle:
    """Counted access to a fixed list of scores over indices 0..K-1.

    evaluate() is the algorithm's only read channel and always charges one
    query, repeat lookups included; charge() books the per-iteration cost of
    the amplified search. Scores may be any totally ordered values. The
    caller scores every index once before the search starts, so scoring-side
    instrumentation counts K scoring passes while the query counter counts
    algorithmic work.

    Everything below the marked line is harness bookkeeping (ground truth,
    hit odds) and never touches the counter; reading `scores`
    directly charges nothing either.
    """

    def __init__(self, scores):
        self.size = len(scores)
        if self.size < 1:
            raise ValueError("need at least one candidate")
        self.scores = scores
        self.queries = 0
        # stable, so equal scores keep index order
        self._order = sorted(range(self.size), key=scores.__getitem__)
        self._keys = [scores[i] for i in self._order]
        # marked-set size t -> hit odds of m = 0, 1, ... iterations
        self._odds = {}

    def evaluate(self, index):
        """One counted oracle query."""
        self.queries += 1
        return self.scores[index]

    def charge(self, n):
        """Books n uninspected queries (2 per amplification iteration)."""
        self.queries += n

    # ---- harness side ----

    def _hit_odds(self, marked, length):
        """sin^2((2m+1)*asin(sqrt(marked/K))) for m in 0..length-1 at least.

        One row per marked-set size, kept for the oracle's lifetime, so every
        search over the same scores shares it.
        """
        row = self._odds.get(marked)
        if row is None or len(row) < length:
            angle = math.asin(math.sqrt(marked / self.size))
            row = self._odds[marked] = [math.sin((2 * m + 1) * angle) ** 2 for m in range(length)]
        return row

    def is_max_score(self, score):
        """Whether score order-equals the true maximum."""
        return not (score < self._keys[-1])


@lru_cache(maxsize=1)
def _m_schedule(size):
    """(int(m_max), its bit length) after j straight failed rounds, for j = 0,
    1, ... up to the first j at which m_max, grown by GROWTH per failure,
    reaches its cap sqrt(K), where it stays. A power of GROWTH would round
    differently from the search's own float recurrence."""
    m_cap = math.sqrt(size)
    m_max = 1.0
    schedule = [(1, 1)]
    while m_max < m_cap:
        m_max *= GROWTH
        if m_cap < m_max:
            m_max = m_cap
        n = int(m_max)
        schedule.append((n, n.bit_length()))
    return tuple(schedule)


def durr_hoyer_max(oracle, rng):
    """Threshold-walk maximum finding over oracle's index range.

    Starts from a uniform random index, repeatedly runs the amplified
    above-threshold search with m_max read from _m_schedule(K) by the count
    of straight failures (1 after every improvement), and stops when the
    next round no longer fits the floor(query_budget(K)) whole queries. A
    round costs at most what is left and the walk stops only with no query
    left, so every search spends exactly that many, whatever the draws.
    Returns (best index seen, SearchStats); only strict improvements move
    the threshold, so the result is the best score the search evaluated
    and never worse than the starting index.
    """
    size = oracle.size
    start = oracle.queries
    rand = rng.random
    bits = rng.getrandbits
    evaluate = oracle.evaluate
    keys = oracle._keys
    order = oracle._order
    schedule = _m_schedule(size)
    last = len(schedule) - 1
    # 1 <= m_max <= sqrt(K), so every m is below the last entry's int(m_max)
    longest = schedule[last][0]
    best_index = _below(bits, size)
    best_score = evaluate(best_index)
    pos = bisect_right(keys, best_score)
    marked = size - pos
    # (offset, n, n.bit_length()) of the index draw on a hit and on a miss;
    # marking all K gives odds 1.0, so a miss leaves pos >= 1 to draw from
    hit, miss = (pos, marked, marked.bit_length()), (0, pos, pos.bit_length())
    odds = oracle._hit_odds(marked, longest)
    left = int(query_budget(size)) - 1
    iterations = 0
    failures = 0
    while left >= 1:
        n, k = schedule[failures]
        m = bits(k)
        while m >= n:
            m = bits(k)
        affordable = (left - 1) >> 1
        if affordable < m:
            m = affordable
        iterations += m
        left -= 2 * m + 1
        offset, n, k = hit if rand() < odds[m] else miss
        r = bits(k)
        while r >= n:
            r = bits(k)
        measured = order[offset + r]
        score = evaluate(measured)
        if best_score < score:
            best_index, best_score = measured, score
            failures = 0
            pos = bisect_right(keys, score)
            marked = size - pos
            hit, miss = (pos, marked, marked.bit_length()), (0, pos, pos.bit_length())
            odds = oracle._hit_odds(marked, longest)
        elif failures < last:
            failures += 1
    oracle.charge(2 * iterations)
    stats = SearchStats(
        oracle_queries=oracle.queries - start,
        grover_iterations=iterations,
        succeeded=oracle.is_max_score(best_score),
    )
    return best_index, stats


def default_repeats(size):
    """Repetition count for repeated_max: max(1, ceil(log2(size)))."""
    if size < 1:
        raise ValueError("need at least one candidate")
    return max(1, math.ceil(math.log2(size)))


def repeated_max(oracle, repeats, rng):
    """Best result of `repeats` independent searches.

    The winners' scores are read from oracle.scores and compared
    classically at no query cost, so the result is the best score any of
    the searches evaluated.
    For a unique maximum each search succeeds with probability >= 1/2, so the
    batch succeeds with probability >= 1 - (1/2)**repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    total = SearchStats()
    best_index = None
    best_score = None
    for _ in range(repeats):
        index, stats = durr_hoyer_max(oracle, rng)
        total.oracle_queries += stats.oracle_queries
        total.grover_iterations += stats.grover_iterations
        score = oracle.scores[index]
        if best_score is None or best_score < score:
            best_index, best_score = index, score
    total.succeeded = oracle.is_max_score(best_score)
    return best_index, total
