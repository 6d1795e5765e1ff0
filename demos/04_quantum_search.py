"""The simulated quantum maximum finder, measured.

Runs the amplitude-amplification maximum search over random score vectors
and reports three observables: how often a single run lands on the true
maximum, how many oracle queries it spends against its hard budget, and how
the mean query count grows with the search-space size K (the square-root
scaling that motivates the whole exercise, visible as a log-log slope near
one half).
"""

import math
import random

from qdtree.qsearch import ScoringOracle, durr_hoyer_max, query_budget, repeated_max

TRIALS = 400

print("%6s %10s %12s %10s %12s" % ("K", "success", "mean queries", "budget", "log2 mean"))
rows = []
for k in (4, 16, 64, 256):
    hits = 0
    queries = 0
    for t in range(TRIALS):
        rng = random.Random("demo-%d-%d" % (k, t))
        scores = [rng.random() for _ in range(k)]
        oracle = ScoringOracle(scores)
        best, stats = durr_hoyer_max(oracle, rng)
        hits += stats.succeeded
        queries += stats.oracle_queries
    mean = queries / TRIALS
    rows.append((k, mean))
    print(
        "%6d %10.3f %12.1f %10.1f %12.2f"
        % (k, hits / TRIALS, mean, query_budget(k), math.log2(mean))
    )

slope = (math.log2(rows[-1][1]) - math.log2(rows[0][1])) / (
    math.log2(rows[-1][0]) - math.log2(rows[0][0])
)
print()
print("empirical query-growth exponent: %.3f (sqrt scaling would be 0.5)" % slope)

print()
print("independent repeats drive the failure rate down geometrically:")
k = 16
for repeats in (1, 2, 4):
    hits = 0
    for t in range(TRIALS):
        rng = random.Random("rep-demo-%d-%d" % (repeats, t))
        scores = [rng.random() for _ in range(k)]
        oracle = ScoringOracle(scores)
        best, stats = repeated_max(oracle, repeats, rng)
        hits += stats.succeeded
    floor = 1.0 - 0.5 ** repeats
    print(
        "  repeats=%d  success=%.3f  guaranteed floor=%.4f"
        % (repeats, hits / TRIALS, floor)
    )
