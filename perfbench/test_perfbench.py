"""Self-tests of the benchmark.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from softsets.expr import tokenize  # noqa: E402
from softsets.laws import Counterexample  # noqa: E402


def test_same_seed_gives_identical_inputs(tmp_path):
    assert workloads.random_bindings(7) == workloads.random_bindings(7)
    assert workloads.random_bindings(7) != workloads.random_bindings(8)
    names = list(workloads.random_bindings(7)[2])
    assert workloads.random_expression(9, names) == workloads.random_expression(9, names)
    assert workloads.random_expression(9, names) != workloads.random_expression(10, names)

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.CliWorkload(7, tmp_path / "a")
    b = workloads.CliWorkload(7, tmp_path / "b")
    assert a.path.read_text() == b.path.read_text()
    assert a.prepare(3)[2] == b.prepare(3)[2]

    first = workloads.LawsWorkload("random", 7).run(3)
    second = workloads.LawsWorkload("random", 7).run(3)
    assert first == second


def test_expression_has_the_fixed_operator_count():
    tree = workloads.random_expression(1, ["S1", "S2"])
    text, tokens = workloads.expression_text(tree)
    complements = text.count("^c")
    assert sum(text.count(op) for op in "&|-") + complements == workloads.CLI_OPERATORS
    assert tokens == len(tokenize(text))
    assert workloads.node_count(tree) == 2 * workloads.CLI_OPERATORS + 1 - complements


def _verdicts(mode, plant=None):
    """The outcome of op 0 of a laws workload, after ``plant`` has
    edited its reports, and its missed refutations.  Exhaustive mode keeps to the laws of arity 1
    and 2, to stay quick."""
    wl = workloads.LawsWorkload(mode, 0)
    if mode == "exhaustive":
        wl.reference = wl.suite = tuple(law for law in wl.reference if law.arity <= 2)
    reports = wl.run(0)
    if plant:
        ids = [law.id for law in wl.reference]
        law_id, edit = plant
        i = ids.index(law_id)
        reports[i] = edit(reports[i])
    wl.record(0, reports)
    return wl.verify(), wl.missed_of[0]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_checker_accepts_the_real_verdicts(mode):
    outcome, missed = _verdicts(mode)
    # Random mode passes the false difference-monotonicity law vacuously:
    # a missed refutation, not a failed verdict.
    assert (outcome.failed, missed) == (0, int(mode == "random"))


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_checker_flags_a_flipped_catalog_verdict(mode):
    planted = Counterexample(workloads.frame(1, 1), (), "planted", "")
    after, _ = _verdicts(mode, ("commutative-1", lambda r: replace(r, counterexample=planted)))
    assert after.failed == 1
    assert any("commutative-1" in problem for problem in after.problems)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_checker_flags_a_flipped_false_law_verdict(mode):
    before, missed_before = _verdicts(mode)
    full = 16**2 if mode == "exhaustive" else workloads.RANDOM_TRIALS  # tuples of an arity-2 law
    after, missed = _verdicts(mode, ("false-difference-commutative", lambda r: replace(r, counterexample=None, cases=full)))
    # An exhaustive PASS claims every tuple, so it is a wrong answer; a
    # random-mode PASS only misses the refutation.
    assert after.failed == before.failed + (mode == "exhaustive")
    assert missed == missed_before + 1


def test_checker_flags_a_counterexample_that_does_not_replay():
    def same_twice(report):
        cex = report.counterexample
        return replace(report, counterexample=replace(cex, args=(cex.args[0], cex.args[0])))

    # F - F = F - F holds, so (F, F) is no counterexample.
    assert _verdicts("random", ("false-difference-commutative", same_twice))[0].failed == 1


def test_checker_flags_a_corrupted_eval_output(tmp_path):
    wl = workloads.CliWorkload(3, tmp_path)
    for k in range(3):
        wl.record(k, wl.run(wl.prepare(k)))
    assert wl.verify().failed == 0
    code, out, err = wl.run(wl.prepare(1))
    wl.record(1, (code, out + "p1: o1\n", err))
    assert wl.verify().failed == 1


@pytest.mark.parametrize("name", ["laws-random", "cli-eval"])
def test_traced_self_times_fit_inside_each_op(name, tmp_path):
    wl = workloads.make(name, 5, tmp_path)
    tracer = tracing.Tracer()
    with run.traced(tracer, wl):
        run.run_ops(wl, 0, lambda n, t: n == 3, tracer)
    spans = tracer.arrays()
    own = tracing.self_times(spans)
    assert (own >= 0).all()
    roots = spans["parent"] == tracing.ROOT
    assert roots.sum() == 3
    for i in roots.nonzero()[0]:
        inside = (spans["op"] == spans["op"][i]) & ~roots
        assert inside.any()
        assert own[inside].sum() <= spans["end"][i] - spans["start"][i]


def test_tracer_leaves_the_package_as_it_found_it(tmp_path):
    from softsets import algebra, cli, laws

    before = (algebra.union, cli.main, laws.check_random)
    wl = workloads.make("laws-random", 1, tmp_path)
    with run.traced(tracing.Tracer(), wl):
        assert algebra.union is not before[0]
    assert (algebra.union, cli.main, laws.check_random) == before
    assert wl.suite is wl.reference


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_run_prints_the_metrics_of_benchmark_json(name, trace):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    *_, details, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert json.loads(details)["details"]["problems"] == []
    if name == "laws-random" and trace:
        # The vacuous PASS of the false difference-monotonicity law, at
        # most once per op.
        assert 0 < result["metrics"]["laws.missed_refutations"]["value"] <= 1


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
