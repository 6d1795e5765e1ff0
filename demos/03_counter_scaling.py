"""Why the counter backend matters when the class count is large.

Builds the same tree from the same rows under a growing declared class
count. Scores and trees never change; only the counter bookkeeping does.
The dense backend sweeps all M slots whenever a scan starts or finishes, so
its structure-maintenance cost scales with M. The ordered-map backend only
ever touches the classes actually present.
"""

from qdtree.builder import BuildConfig, serialize_model, train
from qdtree.synth import grid_dataset

print("same 512 rows, 4 attributes, 3 realized classes; M = declared classes")
print()
print("%9s %15s %15s %8s" % ("M", "baseline ops", "treemap ops", "same tree"))

for m in (4, 16, 64, 256, 1024):
    data = grid_dataset(n=512, d=4, seed=0, class_count=m)
    dense = train(data, BuildConfig(max_height=4, backend="baseline"))
    sparse = train(data, BuildConfig(max_height=4, backend="treemap"))
    same = serialize_model(dense) == serialize_model(sparse)
    print(
        "%9d %15d %15d %8s"
        % (m, dense.stats.tally.maintenance_ops, sparse.stats.tally.maintenance_ops, same)
    )

print()
print("baseline grows linearly in M; treemap does not move. Element-level")
print("touches (per-sample counter updates) are excluded from the table:")
print("both backends make the same number of those by construction.")
