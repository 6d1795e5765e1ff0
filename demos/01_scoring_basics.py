"""How a split gets scored.

Walks one tiny table through class entropy, information gain, potential
(branch-size) information, and their quotient, which is the quantity every
scanner in this package maximizes. Entropy and gain come straight from
their definitions in qdtree.oracle, the reference the scanners' incremental
sums are checked against; the ratio is the scanners' own gain_ratio.
"""

from qdtree.criteria import gain_ratio
from qdtree.oracle import entropy, gain

# four samples, one real attribute, labels A A A B
values = [1.0, 2.0, 3.0, 4.0]
labels = [1, 1, 1, 2]



def class_counts(classes):
    """Counts of classes 1 and 2, in that order."""
    return [classes.count(j) for j in (1, 2)]


parent = class_counts(labels)
print("parent counts:", parent)
print("parent information: %.10f bits" % entropy(parent))
print()

# a real threshold sends x <= theta left and the rest right; the useful
# thetas sit halfway between consecutive distinct values
for theta in (1.5, 2.5, 3.5):
    left = class_counts([c for v, c in zip(values, labels) if v <= theta])
    right = class_counts([c for v, c in zip(values, labels) if v > theta])
    g = gain(parent, [left, right])
    p = entropy([sum(left), sum(right)])
    score = gain_ratio(g, p)
    print(
        "theta=%.1f  left=%s right=%s  gain=%.7f  potential=%.7f  ratio=%.7f"
        % (theta, left, right, g, p, score.ratio)
    )

print()
print("The 3.5 cut isolates the lone B, so its gain equals the parent")
print("entropy and equals its potential: ratio 1.0, a perfect split.")
print("Plain gain would also pick it, but the ratio exists to stop")
print("many-way splits from buying gain with sheer branch count.")

# the degenerate cut: everything in one branch
degenerate = gain_ratio(0.0, 0.0)
print()
print("an everything-left candidate reports valid=%s" % degenerate.valid)
print("and loses every comparison:", degenerate.ratio < gain_ratio(1e-12, 1.0).ratio)
