"""Simulated quantum maximum finding with exact oracle-query accounting.

The threshold search is simulated at the success-probability level, not the
state-vector level. Each amplified inner search for "an index scoring above
the current threshold" draws an iteration count m, is charged 2m+1 oracle
queries, and succeeds with probability sin^2((2m+1)*asin(sqrt(t/K))) where t
is the number of indices strictly above the threshold. The harness's
measure() computes t, draws the hit and then draws the measured index
uniformly from the marked set on a hit or from the rest otherwise; the
algorithm itself sees only counted evaluate() results. This reproduces the
observable contract of the search (success odds, query counts, budget) at
classical cost. Sizing the marked set needs every score, so the oracle is a
counted view over a score list fixed before the search: the caller scores
each index exactly once, however many queries the search then spends.

Indices run 0..K-1 throughout.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

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


class ScoringOracle:
    """Counted access to a fixed list of scores over indices 0..K-1.

    evaluate() is the algorithm's only read channel and always charges one
    query, repeat lookups included; charge() books the per-iteration cost of
    the amplified search. Scores may be any totally ordered values. The
    caller scores every index once before the search starts, so scoring-side
    instrumentation counts K scoring passes while the query counter counts
    algorithmic work.

    Everything below the marked line is harness bookkeeping (ground truth,
    measurement draws) and never touches the counter; reading `scores`
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
        # asin(sqrt(t/K)) for every marked-set size t in 0..K
        self._angles = [math.asin(math.sqrt(t / self.size)) for t in range(self.size + 1)]

    def evaluate(self, index):
        """One counted oracle query."""
        self.queries += 1
        return self.scores[index]

    def charge(self, n):
        """Books n uninspected queries (2 per amplification iteration)."""
        self.queries += n

    # ---- harness side ----

    def measure(self, score, m, rng):
        """Index read out after m amplification iterations marking scores[i] > score.

        A hit (probability sin^2((2m+1)*asin(sqrt(t/K))), t the marked-set
        size) yields a uniform marked index, a miss a uniform unmarked one.
        """
        pos = bisect_right(self._keys, score)
        marked = self.size - pos
        if rng.random() < math.sin((2 * m + 1) * self._angles[marked]) ** 2:
            return self._order[pos + rng.randrange(marked)]
        return self._order[rng.randrange(pos)]

    def is_max_score(self, score):
        """Whether score order-equals the true maximum."""
        return not (score < self._keys[-1])


def durr_hoyer_max(oracle, rng):
    """Threshold-walk maximum finding over oracle's index range.

    Starts from a uniform random index, repeatedly runs the amplified
    above-threshold search with the exponential m_max schedule (reset to 1 on
    every improvement, grown by 8/7 on failure, capped at sqrt(K)), and stops
    when the next round no longer fits the query budget. A round costs at
    most what is left and the walk stops only with less than one query
    left, so every search spends exactly floor(query_budget(K)) queries,
    whatever the draws. Returns (best index seen, SearchStats); only strict
    improvements move the threshold, so the result is the best score the
    search evaluated and never worse than the starting index.
    """
    size = oracle.size
    budget = query_budget(size)
    start = oracle.queries
    stats = SearchStats()
    best_index = rng.randrange(size)
    best_score = oracle.evaluate(best_index)
    m_max = 1.0
    m_cap = math.sqrt(size)
    while True:
        remaining = budget - (oracle.queries - start)
        affordable = int((remaining - 1) // 2)
        if affordable < 0:
            break
        m = min(rng.randrange(max(1, int(m_max))), affordable)
        oracle.charge(2 * m)
        stats.grover_iterations += m
        measured = oracle.measure(best_score, m, rng)
        score = oracle.evaluate(measured)
        if best_score < score:
            best_index, best_score = measured, score
            m_max = 1.0
        else:
            m_max = min(m_max * GROWTH, m_cap)
    stats.oracle_queries = oracle.queries - start
    stats.succeeded = oracle.is_max_score(best_score)
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
