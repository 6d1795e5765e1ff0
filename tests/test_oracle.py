"""Sanity checks for the brute-force reference scorer.

The reference module is the ground truth the fast scanners are judged
against, so its own tests lean on instances small enough to work out by
hand.
"""

import ast
import math
import random
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import qdtree
from qdtree import criteria, splitscan, verify
from qdtree.builder import BuildConfig, Leaf, train
from qdtree.counters import BASELINE, TREEMAP
from qdtree.criteria import SplitScore
from qdtree.dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    Dataset,
    SubsetView,
)
from qdtree.oracle import (
    argmax_attributes,
    attribute_best,
    brute_force_best_split,
    candidates_for_attribute,
    entropy,
    exhaustive_depth1_accuracy,
    label_entropy,
    majority_label,
    reference_tree,
)
from qdtree.verify import SCORE_TOL

ENTROPY_3_1 = 0.8112781244591328
GAIN_3_1_AT_25 = 0.3112781244591328
RATIO_2_2_AT_35 = 0.3836885465963443


def real_data(values, labels):
    schema = AttributeSchema((Attribute("x1", REAL),), class_count=max(labels))
    names = tuple("c%d" % (i + 1) for i in range(max(labels)))
    return Dataset(schema, [values], labels, names)


def test_label_entropy_hand_values():
    assert label_entropy([1, 1, 2, 2]) == 1.0
    assert label_entropy([1, 1, 1]) == 0.0
    assert label_entropy([1, 1, 1, 2]) == ENTROPY_3_1
    assert entropy([1, 3]) == ENTROPY_3_1
    assert entropy([2, 2]) == 1.0


def test_majority_label_breaks_ties_low():
    assert majority_label([2, 2, 1]) == 2
    assert majority_label([2, 1]) == 1


def test_separable_pair_scores_one():
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    result = brute_force_best_split(data.full_view())
    best = result.best
    assert best.theta == 2.5
    assert abs(best.ratio - 1.0) < 1e-12
    assert abs(best.gain - 1.0) < 1e-12


def test_three_one_labeling_prefers_pure_singleton():
    # labels AAAB over 1,2,3,4: the 3|1 cut is a perfect(ratio 1) split
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 2])
    result = brute_force_best_split(data.full_view())
    rows = {c.theta: c for c in result.table}
    assert sorted(rows) == [1.5, 2.5, 3.5]
    assert abs(rows[2.5].gain - GAIN_3_1_AT_25) < 1e-15
    best = result.best
    assert best.theta == 3.5
    assert abs(best.gain - ENTROPY_3_1) < 1e-15
    assert abs(best.potential - ENTROPY_3_1) < 1e-15
    assert abs(best.ratio - 1.0) < 1e-12


def test_two_two_labeling_candidate_table():
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    rows = {c.theta: c for c in brute_force_best_split(data.full_view()).table}
    row = rows[3.5]
    assert abs(row.gain - GAIN_3_1_AT_25) < 1e-15
    assert abs(row.potential - ENTROPY_3_1) < 1e-15
    assert abs(row.ratio - RATIO_2_2_AT_35) < 1e-15
    assert rows[2.5].ratio > row.ratio


def test_thresholds_skip_repeated_values():
    data = real_data([1.0, 1.0, 2.0, 2.0], [1, 2, 1, 2])
    thetas = [c.theta for c in candidates_for_attribute(data.full_view(), 0)]
    assert thetas == [1.5]


def test_discrete_attribute_single_candidate():
    schema = AttributeSchema((Attribute("c", DISCRETE, 2),), class_count=2)
    data = Dataset(schema, [[1, 1, 2]], [1, 2, 2], ("a", "b"))
    cands = candidates_for_attribute(data.full_view(), 0)
    assert len(cands) == 1
    c = cands[0]
    assert abs(c.gain - 0.2516291673878229) < 1e-15
    assert abs(c.potential - 0.9182958340544896) < 1e-15
    assert abs(c.ratio - 0.2740175421212810) < 1e-15


def test_constant_attribute_yields_nothing():
    data = real_data([5.0, 5.0, 5.0], [1, 2, 1])
    assert candidates_for_attribute(data.full_view(), 0) == []
    assert brute_force_best_split(data.full_view()).best is None
    assert attribute_best(data.full_view(), 0) is None


def test_scores_do_not_depend_on_attribute_position():
    schema_ab = AttributeSchema(
        (Attribute("x1", REAL), Attribute("c", DISCRETE, 2)), class_count=2
    )
    schema_ba = AttributeSchema(
        (Attribute("c", DISCRETE, 2), Attribute("x1", REAL)), class_count=2
    )
    reals = [1.0, 2.0, 3.0, 4.0]
    disc = [1, 2, 2, 1]
    labels = [1, 1, 2, 2]
    ab = Dataset(schema_ab, [reals, disc], labels, ("a", "b"))
    ba = Dataset(schema_ba, [disc, reals], labels, ("a", "b"))
    best_ab = {0: attribute_best(ab.full_view(), 0), 1: attribute_best(ab.full_view(), 1)}
    best_ba = {0: attribute_best(ba.full_view(), 0), 1: attribute_best(ba.full_view(), 1)}
    assert best_ab[0].ratio == best_ba[1].ratio
    assert best_ab[1].ratio == best_ba[0].ratio
    assert brute_force_best_split(ab.full_view()).best.ratio == pytest.approx(
        brute_force_best_split(ba.full_view()).best.ratio, abs=0
    )


def test_argmax_attributes_reports_ties():
    # two identical columns tie exactly
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    data = Dataset(schema, [[1.0, 2.0], [1.0, 2.0]], [1, 2], ("a", "b"))
    assert argmax_attributes(data.full_view()) == {0, 1}


def test_xor_needs_depth_two():
    schema = AttributeSchema((Attribute("x1", REAL), Attribute("x2", REAL)), 2)
    data = Dataset(
        schema,
        [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]],
        [1, 2, 2, 1],
        ("a", "b"),
    )
    view = data.full_view()
    assert exhaustive_depth1_accuracy(view) == 0.5
    tree = reference_tree(view, height_limit=2)
    assert "attr" in tree and all("attr" in ch for ch in tree["children"])


def test_reference_tree_leaf_cases():
    data = real_data([1.0, 2.0], [1, 1])
    assert reference_tree(data.full_view(), 4) == {"class": 1}
    mixed = real_data([1.0, 2.0], [1, 2])
    assert reference_tree(mixed.full_view(), 0) == {"class": 1}


def test_reference_tree_splits_separable_data():
    data = real_data([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    tree = reference_tree(data.full_view(), 4)
    assert tree["attr"] == 0 and tree["theta"] == 2.5
    assert tree["children"] == [{"class": 1}, {"class": 2}]



# --- whole trees against the reference ---


def coarse_mixed_data(rng):
    """A small random mixed dataset whose real values lie on a grid of
    halves, so that values repeat and splits tie."""
    attributes = []
    for j in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            attributes.append(Attribute("a%d" % j, REAL))
        else:
            attributes.append(Attribute("a%d" % j, DISCRETE, rng.randint(2, 4)))
    m = rng.randint(2, 3)
    n = rng.randint(2, 30)
    columns = [
        [rng.randint(0, 4) / 2 for _ in range(n)]
        if a.kind == REAL
        else [rng.randint(1, a.domain_size) for _ in range(n)]
        for a in attributes
    ]
    labels = [rng.randint(1, m) for _ in range(n)]
    names = tuple("c%d" % (j + 1) for j in range(m))
    return Dataset(AttributeSchema(tuple(attributes), m), columns, labels, names)


# (base, direction) of the runs of adjacent floats that adjacent_float_data
# draws real columns from: midpoints that round onto a value, subnormals,
# the subnormal-normal boundary, a signed zero, and sums that overflow
ADJACENT_RUNS = (
    (1.0, math.inf),
    (math.ulp(0.0), math.inf),
    (sys.float_info.min, math.inf),
    (-0.0, math.inf),
    (sys.float_info.max, -math.inf),
)


def adjacent_float_data(rng):
    """coarse_mixed_data with each real column drawn from a run of 2 to 5
    adjacent floats, stepped by math.nextafter from one of ADJACENT_RUNS."""
    data = coarse_mixed_data(rng)
    columns = []
    for attribute, column in zip(data.schema.attributes, data.columns):
        if attribute.kind == REAL:
            value, toward = rng.choice(ADJACENT_RUNS)
            run = [value]
            for _ in range(rng.randint(1, 4)):
                run.append(math.nextafter(run[-1], toward))
            column = [rng.choice(run) for _ in column]
        columns.append(column)
    return Dataset(data.schema, columns, data.labels, data.class_labels)


def reference_ratio(view, attr, theta):
    """The reference's gain ratio of the one split (attr, theta) on view."""
    (cand,) = [c for c in candidates_for_attribute(view, attr) if c.theta == theta]
    assert cand.valid
    return cand.ratio


def tree_mismatches(node, ref, view):
    """Where a built tree and the reference tree disagree, walking both in
    preorder below their first difference on each path. A split that
    differs passes only if the two splits' reference ratios are a tie
    within SCORE_TOL; it is returned as ("near-tie", ...), any other
    difference as ("mismatch", ...)."""
    out = []
    stack = [(node, ref, view)]
    while stack:
        node, ref, view = stack.pop()
        if isinstance(node, Leaf) or "class" in ref:
            if not (isinstance(node, Leaf) and node.class_index == ref.get("class")):
                out.append(("mismatch", node, ref))
            continue
        test = node.test
        if (test.attr, test.theta) != (ref["attr"], ref["theta"]):
            built = reference_ratio(view, test.attr, test.theta)
            chosen = reference_ratio(view, ref["attr"], ref["theta"])
            tie = abs(built - chosen) <= SCORE_TOL
            out.append(("near-tie" if tie else "mismatch", test, ref))
            continue
        values = view.values(test.attr)
        if test.kind == REAL:
            masks = [values <= test.theta, values > test.theta]
        else:
            masks = [values == w for w in range(1, test.branch_count + 1)]
        assert len(masks) == len(node.children) == len(ref["children"])
        for child, ref_child, mask in zip(node.children, ref["children"], masks):
            stack.append((child, ref_child, SubsetView(view.base, view.indices[mask])))
    return out


def test_whole_trees_match_the_reference_up_to_near_ties(monkeypatch):
    # on coarse grids and on runs of adjacent floats, with levels scored
    # view by view as these small builds are, and with every level batched
    kinds = Counter()
    for make_data, seed in (
        (coarse_mixed_data, "whole-tree-reference"),
        (adjacent_float_data, "whole-tree-adjacent-floats"),
    ):
        rng = random.Random(seed)
        for _ in range(600):
            data = make_data(rng)
            height = rng.randint(0, 4)
            min_split = rng.randint(2, 4)
            ref = reference_tree(data.full_view(), height, min_split)
            config = BuildConfig(max_height=height, min_split=min_split)
            for backend, cutoff in product((BASELINE, TREEMAP), (splitscan.BATCH_MIN_ROWS, 0)):
                with monkeypatch.context() as patch:
                    patch.setattr(splitscan, "BATCH_MIN_ROWS", cutoff)
                    tree = train(data, replace(config, backend=backend))
                found = tree_mismatches(tree.root, ref, data.full_view())
                assert [f for f in found if f[0] == "mismatch"] == [], make_data.__name__
                kinds.update(f[0] for f in found)
    # the coarse grid does make ties, so the near-tie rule is exercised
    assert kinds["near-tie"] > 0


# --- the reference shares no code with the scanners ---

PACKAGE = Path(qdtree.__file__).resolve().parent


def package_imports(module):
    """The qdtree modules that src/qdtree/<module>.py imports, relatively or
    by absolute name."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / ("%s.py" % module)).read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qdtree."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
            elif node.module == "qdtree" or node.module.startswith("qdtree."):
                base = node.module.partition(".")[2]
            else:
                continue
            found.update([base.split(".")[0]] if base else [a.name for a in node.names])
    return found & modules


def test_the_oracle_shares_no_code_with_the_scanners():
    assert package_imports("oracle") <= {"dataset"}
    for module in ("criteria", "counters", "splitscan", "builder", "qsearch", "qbuilder", "dataset"):
        assert "oracle" not in package_imports(module), module
    # the parse sees every import form the package uses
    assert package_imports("verify") >= {"oracle", "builder", "splitscan", "dataset"}
    # verify scores against the oracle alone, never with the scanners' arithmetic
    assert "criteria" not in package_imports("verify")


def test_a3_fails_when_gain_ratio_is_off(monkeypatch):
    # a fault in the ratio that every scanner score goes through must fail
    # A3 wherever that function is imported, which holds only while A3's
    # reference shares no code with it
    original = criteria.gain_ratio

    def skewed(g, p):
        score = original(g, p)
        return SplitScore(g, p, g / (p + 1e-6)) if score.valid else score

    for name, module in list(sys.modules.items()):
        if name.startswith("qdtree") and getattr(module, "gain_ratio", None) is original:
            monkeypatch.setattr(module, "gain_ratio", skewed)
    res = verify.incremental_discrete(instances=50, seed=3)
    assert not res["passed"] and res["max_delta"] > 1e-7


def test_the_builder_restates_no_value_or_label_rule():
    # dataset.checked_values and dataset.check_class_labels are the rules;
    # a builder that used their parts would be growing a second copy
    tree = ast.parse((PACKAGE / "builder.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & {"_holds", "_flat", "_numbers", "breaks_lines"}
    assert {"checked_values", "check_class_labels"} <= names


def test_the_cli_chooses_a_builder_only_in_build():
    # every command builds through cli._build; a second call site would be
    # a second place to choose between the classical and quantum builders
    callers = {}
    for function in ast.parse((PACKAGE / "cli.py").read_text()).body:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("train", "q_train"):
                    callers.setdefault(name, set()).add(getattr(function, "name", None))
    assert callers == {"train": {"_build"}, "q_train": {"_build"}}


def test_only_score_attributes_picks_a_discrete_kernel():
    # a view's discrete scores come from its level's LevelBatch or from its
    # own discrete_scores pass; a second place choosing between them could
    # score or book a view twice
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("discrete_scores", "scores"):
                        owner = "%s.%s" % (path.stem, getattr(top, "name", None))
                        callers.setdefault(name, set()).add(owner)
    assert callers == {
        "discrete_scores": {"builder.score_attributes"},
        "scores": {"builder.score_attributes"},
    }


def test_the_stopping_rule_is_stated_once():
    # builder.splits is the one statement of when a view is split: outside
    # BuildConfig's own checks and the CLI handing its options to
    # BuildConfig, no code reads max_height or min_split, and only the
    # growth step and the loop that hands a level to its chooser ask it
    reads, callers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for function in top.body if isinstance(top, ast.ClassDef) else [top]:
                scope = path.stem if top is function else "%s.%s" % (path.stem, top.name)
                owner = "%s.%s" % (scope, getattr(function, "name", None))
                plumbed = {
                    id(keyword.value)
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BuildConfig"
                    for keyword in node.keywords
                    if isinstance(keyword.value, ast.Attribute) and keyword.arg == keyword.value.attr
                    and getattr(keyword.value.value, "id", None) == "args"
                }
                for node in ast.walk(function):
                    if isinstance(node, ast.Attribute) and node.attr in ("max_height", "min_split"):
                        reads.add(owner if id(node) not in plumbed else "%s (plumbing)" % owner)
                    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "splits":
                        callers.add(owner)
    assert reads == {
        "builder.BuildConfig.__post_init__",
        "builder.splits",
        "cli.cmd_train (plumbing)",
        "cli._bench_rows (plumbing)",
    }
    assert callers == {"builder.form_tree", "builder.grow"}


def test_only_main_turns_an_exception_into_an_exit_code():
    # commands raise and main reports: a try in a command would be a second
    # statement of which exceptions end in `error:` and exit 2
    functions = {
        node.name: node
        for node in ast.parse((PACKAGE / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    tries = {
        name: sum(isinstance(node, ast.Try) for node in ast.walk(function))
        for name, function in functions.items()
    }
    assert [name for name in tries if name.startswith("cmd_") and tries[name]] == []
    assert tries["main"] == 1
