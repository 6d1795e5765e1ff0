"""The round-by-round search that is the spec qdtree.qsearch.durr_hoyer_max's
loop is held to: every round calls charge(), measure() and randrange()
through the oracle and the rng, and measure() bisects the sorted scores and
reads a sin^2 hit odds from an eager table of marked-set angles. Both must
return the same winner and SearchStats, spend the same queries, evaluate
the same indices in the same order and leave the rng in the same state for
any score list and seed.
"""

import math
from bisect import bisect_right

from qdtree.qsearch import GROWTH, SearchStats, query_budget


class ScoringOracle:
    """Counted access to a fixed list of scores over indices 0..K-1."""

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
    """Threshold-walk maximum finding over oracle's index range."""
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


def repeated_max(oracle, repeats, rng):
    """Best result of `repeats` independent searches."""
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
