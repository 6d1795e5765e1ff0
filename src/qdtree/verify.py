"""Randomized self-check suites behind the verify command.

Each suite returns a plain dict with a "passed" flag and the measured
numbers, so callers (the CLI, the test suite) can print or assert on them.
Ground truth comes from the from-definition reference module; tolerances
match the package's advertised guarantees. All suites are deterministic for
a fixed seed.
"""

import random

import numpy as np

from . import oracle as reference
from .builder import QUANTUM, BuildConfig, choose_split, serialize_model, train
from .counters import BASELINE, TREEMAP, make_backend
from .dataset import SubsetView
from .qbuilder import q_choose_split, q_train
from .qsearch import ScoringOracle, default_repeats, durr_hoyer_max, query_budget
from .splitscan import (
    build_real_scan,
    process_discrete_attribute,
    real_split_candidates,
)
from .synth import grid_dataset, planted_dataset, random_dataset, random_schema

SCORE_TOL = 1e-9


def _random_view(data, rng):
    """The full view or a random subset of at least 2 rows."""
    n = data.n_rows
    if n > 3 and rng.random() < 0.5:
        k = rng.randint(2, n)
        return SubsetView(data, rng.sample(range(n), k))
    return data.full_view()


def _candidate_delta(score, cand):
    """Largest absolute difference over (gain, potential, ratio) between a
    scanner's score and its reference candidate; 0 when both are invalid."""
    assert score.valid == cand.valid, "validity mismatch"
    if not score.valid:
        return 0.0
    return max(
        abs(score.gain - cand.gain),
        abs(score.potential - cand.potential),
        abs(score.ratio - cand.ratio),
    )


def _discrete_delta(got, expected):
    """_candidate_delta of a discrete scan's (score, test) or None against
    the reference's candidates on its attribute; None when both have none."""
    if got is None:
        assert expected == [], "discrete scan missed a reference candidate"
        return None
    assert len(expected) == 1, "discrete scan scored an attribute the reference did not"
    return _candidate_delta(got[0], expected[0])


def oracle_equivalence(instances=200, seed=0):
    """Every candidate's (G, P, ratio) against the reference, plus argmax."""
    rng = random.Random("oracle-suite-%s" % (seed,))
    max_delta = 0.0
    candidates = 0
    argmax_failures = 0
    for i in range(instances):
        d = rng.randint(2, 6)
        m = rng.randint(2, 4)
        n = rng.randint(4, 64)
        schema = random_schema(d, m, "%s-%d" % (seed, i))
        data = random_dataset(schema, n, "%s-%d" % (seed, i))
        view = _random_view(data, rng)
        backend = make_backend(BASELINE if i % 2 == 0 else TREEMAP)
        result = reference.brute_force_best_split(view)
        for attr in range(d):
            expected = [cand for cand in result.table if cand.attr == attr]
            if schema.is_real(attr):
                got = real_split_candidates(view, attr, backend)
                assert len(got) == len(expected), "candidate sets differ in size"
                for (theta, score), cand in zip(got, expected):
                    assert theta == cand.theta, "threshold mismatch"
                    max_delta = max(max_delta, _candidate_delta(score, cand))
                    candidates += 1
            else:
                delta = _discrete_delta(process_discrete_attribute(view, attr, backend), expected)
                if delta is not None:
                    max_delta = max(max_delta, delta)
                    candidates += 1
        best = result.best
        chosen = choose_split(view, backend)
        if best is None:
            if chosen is not None:
                argmax_failures += 1
        else:
            # the attributes with a valid candidate within tolerance of the best
            tied = {c.attr for c in result.table if c.valid and c.ratio >= best.ratio - SCORE_TOL}
            ok = (
                chosen is not None
                and abs(chosen[2].ratio - best.ratio) <= SCORE_TOL
                and chosen[0] in tied
            )
            if not ok:
                argmax_failures += 1
    passed = max_delta <= SCORE_TOL and argmax_failures == 0
    return {
        "name": "oracle-equivalence",
        "passed": passed,
        "instances": instances,
        "candidates": candidates,
        "max_delta": max_delta,
        "argmax_failures": argmax_failures,
        "tolerance": SCORE_TOL,
    }


def prefix_consistency(subsets=100, seed=0):
    """Prefix/suffix entropy tables against from-scratch recomputation."""
    rng = random.Random("prefix-suite-%s" % (seed,))
    max_delta = 0.0
    points = 0
    for i in range(subsets):
        m = rng.randint(2, 5)
        n = rng.randint(2, 64)
        schema = random_schema(3, m, "p%s-%d" % (seed, i), kinds="real")
        data = random_dataset(schema, n, "p%s-%d" % (seed, i))
        view = _random_view(data, rng)
        attr = rng.randrange(3)
        backend = make_backend(TREEMAP)
        state = build_real_scan(view, attr, backend)
        labels = state.labels.tolist()
        for u in range(1, len(labels) + 1):
            delta = abs(state.prefix_info[u] - reference.label_entropy(labels[:u]))
            max_delta = max(max_delta, delta)
            delta = abs(state.suffix_info[u] - reference.label_entropy(labels[u - 1:]))
            max_delta = max(max_delta, delta)
            points += 2
    passed = max_delta <= SCORE_TOL
    return {
        "name": "prefix-consistency",
        "passed": passed,
        "subsets": subsets,
        "points": points,
        "max_delta": max_delta,
        "tolerance": SCORE_TOL,
    }


def incremental_discrete(instances=200, seed=0):
    """One-pass accumulator score against the from-definition reference."""
    rng = random.Random("discrete-suite-%s" % (seed,))
    max_delta = 0.0
    scored = 0
    for i in range(instances):
        m = rng.randint(2, 5)
        domain = rng.randint(2, 6)
        n = rng.randint(2, 64)
        schema = random_schema(1, m, "d%s-%d" % (seed, i), kinds="discrete", max_domain=domain)
        data = random_dataset(schema, n, "d%s-%d" % (seed, i))
        view = _random_view(data, rng)
        backend = make_backend(TREEMAP if i % 2 else BASELINE)
        got = process_discrete_attribute(view, 0, backend)
        delta = _discrete_delta(got, reference.candidates_for_attribute(view, 0))
        if delta is not None:
            max_delta = max(max_delta, delta)
            scored += 1
    passed = max_delta <= SCORE_TOL
    return {
        "name": "incremental-discrete",
        "passed": passed,
        "instances": instances,
        "scored": scored,
        "max_delta": max_delta,
        "tolerance": SCORE_TOL,
    }


def backend_identity(datasets=100, seed=0):
    """Dense and sparse backends must serialize identical models."""
    rng = random.Random("identity-suite-%s" % (seed,))
    mismatches = 0
    for i in range(datasets):
        d = rng.randint(2, 8)
        m = rng.randint(2, 6)
        n = rng.randint(4, 128)
        schema = random_schema(d, m, "b%s-%d" % (seed, i))
        data = random_dataset(schema, n, "b%s-%d" % (seed, i))
        height = rng.randint(1, 5)
        base = serialize_model(train(data, BuildConfig(max_height=height, backend=BASELINE)))
        sparse = serialize_model(train(data, BuildConfig(max_height=height, backend=TREEMAP)))
        if base != sparse:
            mismatches += 1
    return {
        "name": "backend-identity",
        "passed": mismatches == 0,
        "datasets": datasets,
        "mismatches": mismatches,
    }


def counter_scaling(n=512, d=4, grid=(4, 64, 256), seed=0, min_ratio=8.0):
    """Maintenance-operation growth with the class count, per backend.

    The same (n, d, seed) dataset is rebuilt under each declared class
    count: identical rows and trees, so tallies differ only through the
    counters' structure costs. The sparse column must not move at all; the
    dense column must grow by at least min_ratio across the grid.
    """
    baseline_ops = {}
    treemap_ops = {}
    for m in grid:
        data = grid_dataset(n, d, seed, class_count=m)
        for backend, out in ((BASELINE, baseline_ops), (TREEMAP, treemap_ops)):
            tree = train(data, BuildConfig(max_height=4, backend=backend))
            out[m] = tree.stats.tally.maintenance_ops
    flat = len(set(treemap_ops.values())) == 1
    lo, hi = min(grid), max(grid)
    growth = baseline_ops[hi] / baseline_ops[lo]
    return {
        "name": "counter-scaling",
        "passed": flat and growth >= min_ratio,
        "baseline_ops": baseline_ops,
        "treemap_ops": treemap_ops,
        "growth": growth,
        "min_ratio": min_ratio,
    }


def search_success(trials=2000, sizes=(8, 32, 128), seed=0, threshold=0.48):
    """Single-search success frequency on injective score vectors."""
    rates = {}
    for size in sizes:
        hits = 0
        for t in range(trials):
            rng = random.Random("dh-%s-%d-%d" % (seed, size, t))
            scores = [rng.random() for _ in range(size)]
            oracle = ScoringOracle(scores)
            _, stats = durr_hoyer_max(oracle, rng)
            if stats.succeeded:
                hits += 1
        rates[size] = hits / trials
    return {
        "name": "search-success",
        "passed": all(rate >= threshold for rate in rates.values()),
        "trials": trials,
        "rates": rates,
        "threshold": threshold,
    }


def repetition_success(trials=5000, d=16, n=64, seed=0, threshold=0.93):
    """Per-node success of the repeated search on a strict-best-attr view."""
    reps = default_repeats(d)
    # several attributes can top out at the same ratio (1.0 is common on
    # planted data), and the success claim is about a strict best; walk the
    # seeds until the root view has one
    strict = False
    for offset in range(64):
        data = planted_dataset(n, d, 2, seed + offset)
        view = data.full_view()
        if len(reference.argmax_attributes(view, tol=SCORE_TOL)) == 1:
            strict = True
            break
    backend = make_backend(TREEMAP)
    hits = 0
    for t in range(trials):
        rng = random.Random("rep-%s-%d" % (seed, t))
        choice = q_choose_split(view, backend, rng, verify=True)
        if choice.correct:
            hits += 1
    rate = hits / trials
    return {
        "name": "repetition-success",
        "passed": strict and rate >= threshold,
        "trials": trials,
        "rate": rate,
        "threshold": threshold,
        "nominal_bound": 1.0 - 1.0 / (2 ** reps),
        "strict_best": strict,
        "repeats": reps,
    }


def query_scaling(sizes=(4, 16, 64, 256, 1024), trials=200, seed=0,
                  slope_range=(0.35, 0.65)):
    """Mean query growth with the search-space size, plus the hard cap."""
    means = []
    cap_violations = 0
    for size in sizes:
        total = 0
        budget = query_budget(size)
        for t in range(trials):
            rng = random.Random("scale-%s-%d-%d" % (seed, size, t))
            scores = [rng.random() for _ in range(size)]
            oracle = ScoringOracle(scores)
            _, stats = durr_hoyer_max(oracle, rng)
            total += stats.oracle_queries
            if stats.oracle_queries > budget:
                cap_violations += 1
        means.append(total / trials)
    slope = float(np.polyfit(np.log2(sizes), np.log2(means), 1)[0])
    lo, hi = slope_range
    return {
        "name": "query-scaling",
        "passed": lo <= slope <= hi and cap_violations == 0,
        "sizes": list(sizes),
        "means": means,
        "slope": slope,
        "slope_range": list(slope_range),
        "cap_violations": cap_violations,
    }


def whole_tree_match(builds=1000, d=16, n=64, depth=2, seed=0, slack=0.05):
    """Frequency of the quantum build reproducing the classical tree.

    The bound is (1 - 1/d)^k with k taken from the classical build, minus
    Monte-Carlo slack. Also enforces the per-node query ceiling
    budget(d) * repeats.
    """
    data = planted_dataset(n, d, depth, seed)
    classical = train(data, BuildConfig(max_height=2 * depth, backend=TREEMAP))
    target = serialize_model(classical)
    k = classical.stats.internal_nodes
    bound = (1.0 - 1.0 / d) ** k - slack
    config = BuildConfig(max_height=2 * depth, backend=QUANTUM, seed=0, verify=False)
    per_node_cap = query_budget(d) * default_repeats(d)
    matches = 0
    cap_violations = 0
    for b in range(builds):
        rng = random.Random("whole-%s-%d" % (seed, b))
        report = q_train(data, config, rng=rng)
        if serialize_model(report.tree) == target:
            matches += 1
        for row in report.per_node:
            if row.oracle_queries > per_node_cap:
                cap_violations += 1
    rate = matches / builds
    return {
        "name": "whole-tree-match",
        "passed": rate >= bound and cap_violations == 0,
        "builds": builds,
        "rate": rate,
        "bound": bound,
        "internal_nodes": k,
        "cap_violations": cap_violations,
    }


#: CLI suite groups. Each suite comes with the parameter that each CLI size
#: flag (instances, trials, builds, d) sets on it; flags it lacks leave it be.
SUITES = {
    "oracle": (
        (oracle_equivalence, {"instances": "instances"}),
        (prefix_consistency, {"instances": "subsets"}),
        (incremental_discrete, {"instances": "instances"}),
    ),
    "backend": (
        (backend_identity, {"instances": "datasets"}),
        (counter_scaling, {}),
    ),
    "quantum": (
        (search_success, {"trials": "trials"}),
        (repetition_success, {"trials": "trials", "d": "d"}),
        (query_scaling, {"trials": "trials"}),
        (whole_tree_match, {"builds": "builds", "d": "d"}),
    ),
}


def run_suite(group, seed=0, instances=None, trials=None, builds=None, d=None):
    """Runs one named suite group with optional size overrides. A suite whose
    structural check fails gives a failed result that names the check."""
    sizes = {"instances": instances, "trials": trials, "builds": builds, "d": d}
    results = []
    for fn, params in SUITES[group]:
        kwargs = {
            param: sizes[flag] for flag, param in params.items() if sizes[flag] is not None
        }
        try:
            results.append(fn(seed=seed, **kwargs))
        except AssertionError as exc:
            name = fn.__name__.replace("_", "-")
            results.append({"name": name, "passed": False, "check": str(exc)})
    return results
