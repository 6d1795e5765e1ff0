"""Whole trees grown with quantum-searched splits.

Each internal node's attribute is picked by the repeated maximum search
instead of a classical sweep. The build logs every search attempt: queries
spent, the attribute chosen, and (when asked to verify) whether that choice's
gain ratio equals the classical optimum's. A run whose every node verifies
reproduces the classical tree byte for byte when every attempt's argmax is
unique; under ties each split is still a classical optimum, but the tree can
differ.
"""

import random

from qdtree.builder import BuildConfig, serialize_model, train
from qdtree.qbuilder import q_train
from qdtree.synth import planted_dataset

data = planted_dataset(n=96, d=16, depth=2, seed=3)
classical = train(data, BuildConfig(max_height=4, backend="treemap"))

config = BuildConfig(max_height=4, backend="quantum", seed=11, verify=True)
report = q_train(data, config)

print("planted depth-2 data, 16 attributes, 96 samples, seed 11")
print()
print("%6s %8s %8s %9s %8s" % ("node", "chosen", "truth", "queries", "correct"))
for node, row in enumerate(report.per_node):
    print(
        "%6d %8s %8s %9d %8s"
        % (node, row.chosen_attr, row.true_best_attr, row.oracle_queries, row.correct)
    )
print()
k = report.tree.stats.internal_nodes
print("internal nodes=%d verified-correct=%d total queries=%d" % (k, report.nodes_correct, report.total_oracle_queries))
print("matches the classical tree:", serialize_model(report.tree) == serialize_model(classical))
print()

# how often does an entire build agree with the classical one?
matches = 0
builds = 50
target = serialize_model(classical)
for seed in range(builds):
    rep = q_train(data, BuildConfig(max_height=4, backend="quantum", seed=seed))
    matches += serialize_model(rep.tree) == target
bound = (1.0 - 1.0 / 16) ** k
print("whole-tree match over %d seeds: %.2f (per-node floor implies >= %.3f)" % (builds, matches / builds, bound))
