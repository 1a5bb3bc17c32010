"""Acceptance gate: one test per criterion, each printing a pass/fail
line (echoed again after the run via the terminal summary hook).

The criteria pin the worked-example fixtures byte-exactly, verify the
whole law catalog exhaustively on small contexts, cross-check the mask
algebra against the matrix route, prove the harness can refute broken
laws, and exercise the text round trips and the normalization rule at
scale.  Runtime bounds apply to criteria 1 and 2.
"""

import itertools
import random
import time

from softsets import algebra, oracle
from softsets.expr import (
    Complement,
    Difference,
    Empty,
    Intersect,
    Name,
    Union,
    Universal,
    evaluate,
    parse_text,
    render,
)
from softsets.houses import (
    PUBLISHED_DIFFERENCE_E2,
    houses_workspace,
    paper_example_report,
    recorded_soft_set,
)
from softsets.laws import (
    _random_soft_set,
    check_exhaustive,
    check_random,
    enumerate_soft_sets,
    law_catalog,
    soft_set_count,
)
from softsets.model import SoftSet, new_context, soft_set
from softsets.workspace import (
    Workspace,
    load_workspace,
    render_soft_set,
    render_workspace,
)

from .conftest import ACCEPTANCE_LINES, HOUSES_RENDERED
from .mutants import BROKEN_LAWS


def _finish(number: int, name: str, failures: "list[str]") -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"[acceptance] {number} {name}: {verdict}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, "; ".join(failures)


def test_acceptance_1_paper_example_regression():
    failures = []
    started = time.perf_counter()

    text, ok = paper_example_report()
    if not ok:
        failures.append("report found a fixture mismatch")

    ws = houses_workspace()
    f, g = ws.bindings["F"], ws.bindings["G"]
    results = {
        "intersection": algebra.intersection(f, g),
        "union": algebra.union(f, g),
        "complement": algebra.complement(f),
        "difference": algebra.difference(f, g),
    }
    for op_name, result in results.items():
        if render_soft_set(result) != HOUSES_RENDERED[op_name]:
            failures.append(f"{op_name} rendering is not byte-exact")

    domains = {
        "intersection": {"e3", "e4", "e5", "e7"},
        "union": {"e1", "e2", "e3", "e4", "e5", "e6", "e7"},
        "complement": {"e1", "e2", "e3", "e4", "e6", "e7", "e8"},
        "difference": {"e2", "e5", "e7"},
    }
    for op_name, expected_domain in domains.items():
        if results[op_name].domain() != expected_domain:
            failures.append(f"{op_name} domain differs")

    diff = results["difference"]
    if diff != recorded_soft_set(ws.context, HOUSES_RENDERED["difference"]):
        failures.append("difference images differ from the definitional fixture")
    if diff.image("e2") == PUBLISHED_DIFFERENCE_E2:
        failures.append("difference at e2 shows the published misprint, not the definition")
    if "ERRATUM" not in text:
        failures.append("erratum note missing from the report")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound is 1s")
    _finish(1, "paper-example regression", failures)


def test_acceptance_2_exhaustive_law_verification():
    failures = []
    started = time.perf_counter()

    ctx_small = new_context(("x1", "x2"), ("e1", "e2"))
    n_small = soft_set_count(ctx_small)
    if n_small != 16:
        failures.append(f"expected 16 soft sets at |U|=2 |E|=2, found {n_small}")
    for law in law_catalog():
        report = check_exhaustive(law, ctx_small)
        if not report.passed:
            failures.append(f"{law.id} failed at |U|=2 |E|=2")
        if report.cases != n_small**law.arity:
            failures.append(f"{law.id} checked {report.cases} tuples")

    ctx_wider = new_context(("x1", "x2", "x3"), ("e1", "e2"))
    n_wider = soft_set_count(ctx_wider)
    if n_wider != 64:
        failures.append(f"expected 64 soft sets at |U|=3 |E|=2, found {n_wider}")
    for law in law_catalog():
        if law.arity <= 2:
            report = check_exhaustive(law, ctx_wider)
            if not report.passed:
                failures.append(f"{law.id} failed at |U|=3 |E|=2")
            if report.cases != n_wider**law.arity:
                failures.append(f"{law.id} checked {report.cases} tuples")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, bound is 10s")
    _finish(2, "exhaustive law verification", failures)


def test_acceptance_3_oracle_equivalence():
    failures = []
    mismatches = 0

    ctx_small = new_context(("x1", "x2"), ("e1", "e2"))
    sets = list(enumerate_soft_sets(ctx_small))
    for a, b in itertools.product(sets, repeat=2):
        ma, mb = oracle.from_soft_set(a), oracle.from_soft_set(b)
        if oracle.to_soft_set(oracle.intersection(ma, mb)) != algebra.intersection(a, b):
            mismatches += 1
        if oracle.to_soft_set(oracle.union(ma, mb)) != algebra.union(a, b):
            mismatches += 1
        if oracle.to_soft_set(oracle.difference(ma, mb)) != algebra.difference(a, b):
            mismatches += 1
        if oracle.to_soft_set(oracle.complement(ma)) != algebra.complement(a):
            mismatches += 1

    ctx_wide = new_context(
        tuple(f"x{i}" for i in range(1, 7)), tuple(f"e{i}" for i in range(1, 7))
    )
    rng = random.Random(2024)
    pairs = 10_000
    for _ in range(pairs):
        a = _random_soft_set(ctx_wide, rng, 0.6, 0.5)
        b = _random_soft_set(ctx_wide, rng, 0.6, 0.5)
        ma, mb = oracle.from_soft_set(a), oracle.from_soft_set(b)
        if oracle.to_soft_set(oracle.intersection(ma, mb)) != algebra.intersection(a, b):
            mismatches += 1
        if oracle.to_soft_set(oracle.union(ma, mb)) != algebra.union(a, b):
            mismatches += 1
        if oracle.to_soft_set(oracle.difference(ma, mb)) != algebra.difference(a, b):
            mismatches += 1
        if oracle.to_soft_set(oracle.complement(ma)) != algebra.complement(a):
            mismatches += 1

    if mismatches:
        failures.append(f"{mismatches} oracle mismatches (tolerance is zero)")
    _finish(3, "oracle equivalence", failures)


def test_acceptance_4_mutation_sensitivity():
    failures = []
    ctx = new_context(("x1", "x2", "x3"), ("e1", "e2", "e3"))
    if len(BROKEN_LAWS) < 5:
        failures.append("fewer than 5 broken laws")
    for broken in BROKEN_LAWS:
        report = check_random(broken, ctx, trials=1000, seed=0)
        if report.passed:
            failures.append(f"{broken.id}: no counterexample within 1000 trials")
            continue
        cex = report.counterexample
        if broken.check(cex.context, cex.args) is None:
            failures.append(f"{broken.id}: shrunken counterexample no longer violates")
    # exhaustively too, which checks the laws written as text bit-sliced
    small = new_context(("x1", "x2"), ("e1", "e2"))
    for broken in BROKEN_LAWS:
        report = check_exhaustive(broken, small)
        if report.passed:
            failures.append(f"{broken.id}: no counterexample among all 2x2 tuples")
        elif broken.check(report.counterexample.context, report.counterexample.args) is None:
            failures.append(f"{broken.id}: exhaustive counterexample no longer violates")
    _finish(4, "mutation sensitivity", failures)


def _random_tree(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.30:
        leaf = rng.random()
        if leaf < 0.60:
            return Name(rng.choice(("F", "G", "H", "K", "left_2", "q")))
        return Empty() if leaf < 0.80 else Universal()
    if roll < 0.45:
        return Complement(_random_tree(rng, depth + 1))
    left, right = _random_tree(rng, depth + 1), _random_tree(rng, depth + 1)
    if roll < 0.65:
        return Intersect(left, right)
    if roll < 0.85:
        return Union(left, right)
    return Difference(left, right)


def _random_workspace(rng: random.Random) -> Workspace:
    n_objects = rng.randint(0, 5)
    n_params = rng.randint(0, 5) if n_objects else 0
    ctx = new_context(
        tuple(f"x{i}" for i in range(1, n_objects + 1)),
        tuple(f"e{i}" for i in range(1, n_params + 1)),
    )
    bindings = {}
    for b in range(rng.randint(0, 4)):
        masks = tuple(rng.randint(0, ctx.full_mask) for _ in range(n_params))
        bindings[f"S{b}"] = SoftSet.from_masks(ctx, masks)
    return Workspace(ctx, bindings)


def test_acceptance_5_expression_and_io_round_trips():
    failures = []
    rng = random.Random(5)

    bad_trees = sum(
        1 for _ in range(1000) if (t := _random_tree(rng)) != parse_text(render(t))
    )
    if bad_trees:
        failures.append(f"{bad_trees} expression round trips broke")

    bad_workspaces = 0
    for _ in range(1000):
        ws = _random_workspace(rng)
        text = render_workspace(ws)
        if load_workspace(text) != ws or render_workspace(load_workspace(text)) != text:
            bad_workspaces += 1
    if bad_workspaces:
        failures.append(f"{bad_workspaces} workspace round trips broke")

    ctx = new_context(("x1", "x2", "x3"), ("e1", "e2", "e3"))
    left_text, right_text = "(F & G)^c", "F^c | G^c"
    unequal = 0
    for _ in range(1000):
        env = {
            "F": _random_soft_set(ctx, rng, 0.6, 0.5),
            "G": _random_soft_set(ctx, rng, 0.6, 0.5),
        }
        left = evaluate(parse_text(left_text), env, ctx)
        right = evaluate(parse_text(right_text), env, ctx)
        if not algebra.equals(left, right):
            unequal += 1
    if unequal:
        failures.append(f"expression-level De Morgan failed on {unequal} environments")
    _finish(5, "expression and io round trips", failures)


def test_acceptance_6_normalization_property():
    failures = []
    rng = random.Random(6)
    ctx = new_context(("x1", "x2", "x3", "x4"), ("e1", "e2", "e3", "e4", "e5"))

    broken_pairs = 0
    exposed_empty = 0
    for _ in range(1000):
        parameters = rng.sample(ctx.parameters, k=rng.randint(0, len(ctx.parameters)))
        pairs = []
        for parameter in parameters:
            # empty images appear often, on purpose
            size = rng.choice((0, 0, 1, 2, 4))
            pairs.append((parameter, rng.sample(ctx.objects, k=size)))
        full = soft_set(ctx, pairs)
        filtered = soft_set(ctx, [(p, objs) for p, objs in pairs if objs])
        if full != filtered:
            broken_pairs += 1
        for e in full.domain():
            if not full.image(e):
                exposed_empty += 1

    if broken_pairs:
        failures.append(f"{broken_pairs} raw lists normalized differently")
    if exposed_empty:
        failures.append(f"{exposed_empty} empty images exposed")
    _finish(6, "normalization property", failures)
