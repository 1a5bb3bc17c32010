"""The three workloads: their inputs, one op each, and the output checks.

Every op of a workload does the same work, so a latency percentile does
not depend on which input an op drew.  Op ``k`` draws its inputs from
``seed + k``.  Ops call only public functions of the package, through
their modules, so that a tracer installed on those modules sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from softsets import algebra, cli, laws
from softsets.laws import CheckReport, Law
from softsets.model import Context, SoftSet, new_context

NAMES = ("laws-exhaustive", "laws-random", "cli-eval")

EXHAUSTIVE_FRAME = (2, 2)  # largest frame the default cap admits for every law
RANDOM_FRAME = (6, 6)
RANDOM_TRIALS = 50

CLI_OBJECTS = 100  # above 64, so no 64-bit kernel word serves the frame
CLI_PARAMETERS = 20
CLI_BINDINGS = 16
CLI_OPERATORS = 100
CLI_DEFINED = 14  # parameters defined in each binding
CLI_IMAGE = 50  # objects in each image


def frame(n_objects: int, n_parameters: int) -> Context:
    """The frame ``softsets check-laws`` generates for these sizes."""
    return new_context(
        [f"x{i}" for i in range(1, n_objects + 1)],
        [f"e{i}" for i in range(1, n_parameters + 1)],
    )


# ---------------------------------------------------------------------------
# False laws: each must be refuted with a counterexample that replays.


def _differs(left: SoftSet, right: SoftSet) -> str | None:
    if algebra.equals(left, right):
        return None
    return f"left side {left!r} differs from right side {right!r}"


def _difference_commutes(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    f, g = args
    return _differs(algebra.difference(f, g), algebra.difference(g, f))


def _demorgan_without_flip(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    f, g = args
    return _differs(
        algebra.complement(algebra.intersection(f, g)),
        algebra.intersection(algebra.complement(f), algebra.complement(g)),
    )


def _complement_fixes(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    (f,) = args
    return _differs(algebra.complement(f), f)


def _difference_monotone(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    f1, g1, f2, g2 = args
    if not (algebra.subset(f1, g1) and algebra.subset(f2, g2)):
        return None  # hypothesis not met: vacuous pass
    left, right = algebra.difference(f1, f2), algebra.difference(g1, g2)
    if algebra.subset(left, right):
        return None
    return f"{left!r} is not a subset of {right!r}"


FALSE_LAWS = (
    Law("false-difference-commutative", 2, "F - G = G - F", _difference_commutes, ("F", "G")),
    Law("false-demorgan", 2, "(F & G)^c = F^c & G^c", _demorgan_without_flip, ("F", "G")),
    Law("false-complement-fixpoint", 1, "F^c = F", _complement_fixes, ("F",)),
    # Difference is antitone in its second argument.  Random tuples at
    # 6 x 6 practically never meet the hypothesis, so random mode passes
    # this law vacuously: a missed refutation, counted per op by
    # ``laws.missed_refutations`` in the traced run.
    Law(
        "false-monotonicity-difference", 4,
        "if F1 is a subset of G1 and F2 of G2, then F1 - F2 is a subset of G1 - G2",
        _difference_monotone, ("F1", "G1", "F2", "G2"),
    ),
)

CONDITIONAL = (
    "monotonicity-cap",
    "monotonicity-cup",
    "complement-characterization-fwd",
    "complement-characterization-bwd",
)


def law_suite() -> tuple[Law, ...]:
    return laws.law_catalog() + FALSE_LAWS


def judge(law: Law, report: CheckReport, total: int) -> tuple[bool, bool]:
    """(wrong, missed) for one verdict against its known answer.

    ``total`` is the tuple count a full check covers.  A verdict is
    wrong when the program claimed something false: a catalog law
    refuted or short of its tuples, a counterexample that does not
    replay, or an exhaustive PASS of a false law.  A random-mode PASS of
    a false law only says no counterexample turned up among the trials:
    it is not wrong, but the refutation was missed.
    """
    if law not in FALSE_LAWS:
        return not report.passed or report.cases != total, False
    cex = report.counterexample
    if cex is None:
        return report.mode == "exhaustive" or report.cases != total, True
    return not 1 <= report.cases <= total or law.check(cex.context, cex.args) is None, False


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, wrong: bool, problem: str) -> None:
        self.attempted += 1
        self.failed += wrong
        if wrong and len(self.problems) < 5:
            self.problems.append(problem)


class LawsWorkload:
    """One op is one full-catalog verdict plus the false laws."""

    def __init__(self, mode: str, seed: int):
        self.mode = mode
        self.seed = seed
        self.ctx = frame(*(EXHAUSTIVE_FRAME if mode == "exhaustive" else RANDOM_FRAME))
        self.reference = law_suite()
        self.suite = self.reference  # what ops run; a tracer swaps in wrapped copies
        n_sets = laws.soft_set_count(self.ctx)
        self.total = {
            law.id: n_sets**law.arity if mode == "exhaustive" else RANDOM_TRIALS
            for law in self.suite
        }
        self.cases_of: dict[int, int] = {}
        self.missed_of: dict[int, int] = {}
        self.outcome = Outcome()

    def trace_with(self, tracer) -> None:
        """Run ops through Law copies whose checks ``tracer`` wraps, or
        through the plain suite again when ``tracer`` is None.  The
        catalog is rebuilt first, so that it binds the wrapped algebra."""
        if tracer is None:
            self.suite = self.reference
        else:
            self.suite = tuple(
                replace(law, check=tracer.wrap_check(law.check))
                for law in law_suite()
            )

    def check(self, law: Law, k: int) -> CheckReport:
        if self.mode == "exhaustive":
            return laws.check_exhaustive(law, self.ctx)
        return laws.check_random(law, self.ctx, RANDOM_TRIALS, self.seed + k)

    def prepare(self, k: int) -> int:
        return k

    def run(self, k: int, pause=lambda: None) -> list[CheckReport]:
        reports = []
        for law in self.suite:
            reports.append(self.check(law, k))
            pause()
        return reports

    def record(self, k: int, reports: list[CheckReport]) -> None:
        """Judge the verdicts of op ``k`` now and keep only the counts,
        so that a run's heap, and with it garbage collection, does not
        grow with the number of ops."""
        self.cases_of[k] = sum(report.cases for report in reports)
        self.missed_of[k] = 0
        for law, report in zip(self.reference, reports):
            wrong, missed = judge(law, report, self.total[law.id])
            self.missed_of[k] += missed
            self.outcome.add(wrong, f"op {k}: {law.id} {report.mode} verdict is wrong")

    def cases(self, k: int) -> int:
        return self.cases_of[k]

    def verify(self) -> Outcome:
        return self.outcome

    def work(self, ops: range) -> dict[str, int]:
        """Counts for the traced ops ``ops``."""
        met = tried = 0
        for k in ops:
            m, t = self.hypothesis_met(k)
            met, tried = met + m, tried + t
        return {
            "cases": sum(self.cases_of[k] for k in ops),
            "missed_refutations": sum(self.missed_of[k] for k in ops),
            "hypothesis_met": met,
            "hypothesis_tried": tried,
        }

    def hypothesis_met(self, k: int) -> tuple[int, int]:
        """(tuples meeting the hypothesis, tuples tried) of the four
        conditional catalog laws in op ``k``, replayed outside any trace
        through the same generator and seed."""
        met = [0]

        def counting(hypothesis):
            def check(ctx: Context, args: tuple[SoftSet, ...]) -> None:
                met[0] += hypothesis(ctx, args)

            return check

        tried = 0
        for law in self.reference:
            if law.id in CONDITIONAL:
                tried += self.check(replace(law, check=counting(HYPOTHESES[law.id])), k).cases
        return met[0], tried


# Hypotheses of the conditional laws, computed on the masks directly so
# that counting them adds no algebra calls.


def _subset_masks(s: SoftSet, t: SoftSet) -> bool:
    return all(not a & ~b for a, b in zip(s.masks, t.masks))


def _complement_masks(s: SoftSet) -> tuple[int, ...]:
    full = s.context.full_mask
    return tuple(0 if m == full else full ^ m for m in s.masks)


def _disjoint_and_covering(f: SoftSet, g: SoftSet) -> bool:
    full = f.context.full_mask
    return all(not a & b and a | b == full for a, b in zip(f.masks, g.masks))


HYPOTHESES = {
    "monotonicity-cap": lambda ctx, a: _subset_masks(a[0], a[1]) and _subset_masks(a[2], a[3]),
    "monotonicity-cup": lambda ctx, a: _subset_masks(a[0], a[1]) and _subset_masks(a[2], a[3]),
    "complement-characterization-fwd": lambda ctx, a: a[1].masks == _complement_masks(a[0]),
    "complement-characterization-bwd": lambda ctx, a: _disjoint_and_covering(a[0], a[1]),
}


# ---------------------------------------------------------------------------
# cli-eval: one op is `softsets eval WORKSPACE EXPR`, run in-process.


def random_bindings(seed: int) -> tuple[list[str], list[str], dict[str, dict[str, list[str]]]]:
    """Objects, parameters and the bindings' images, drawn from ``seed``.
    Every binding defines the same number of parameters and every image
    has the same size, so the workspace is the same size for every seed."""
    rng = random.Random(seed)
    objects = [f"o{i}" for i in range(1, CLI_OBJECTS + 1)]
    parameters = [f"p{i}" for i in range(1, CLI_PARAMETERS + 1)]
    bindings = {}
    for b in range(1, CLI_BINDINGS + 1):
        defined = set(rng.sample(parameters, CLI_DEFINED))
        bindings[f"S{b}"] = {
            p: [objects[j] for j in sorted(rng.sample(range(CLI_OBJECTS), CLI_IMAGE))]
            for p in parameters
            if p in defined
        }
    return objects, parameters, bindings


def workspace_text(objects, parameters, bindings) -> str:
    lines = [f"universe: {' '.join(objects)}", f"parameters: {' '.join(parameters)}"]
    for name, images in bindings.items():
        lines.append(f"softset {name}:")
        lines.extend(f"  {p}: {' '.join(members)}" for p, members in images.items())
    return "\n".join(lines) + "\n"


def random_expression(seed: int, names: list[str], operators: int = CLI_OPERATORS):
    """A tree with exactly ``operators`` operators drawn from &, |, - and
    ^c.  Nodes are tuples: (name,), ("^c", child) or (op, left, right).
    Splitting the operators at random keeps the depth far below the
    recursion limit."""
    rng = random.Random(seed)

    def grow(n: int):
        if n == 0:
            return (rng.choice(names),)
        op = rng.choice("&|-c")
        if op == "c":
            return ("^c", grow(n - 1))
        left = rng.randrange(n)
        return (op, grow(left), grow(n - 1 - left))

    return grow(operators)


def expression_text(node) -> tuple[str, int]:
    """Source text of a tree, fully parenthesized, and its token count."""
    if len(node) == 1:
        return node[0], 1
    if len(node) == 2:
        text, tokens = expression_text(node[1])
        return f"{text}^c", tokens + 1
    left, lt = expression_text(node[1])
    right, rt = expression_text(node[2])
    return f"({left} {node[0]} {right})", lt + rt + 3


def node_count(node) -> int:
    return 1 + sum(node_count(child) for child in node[1:])


def oracle_output(node, known: dict, objects: list[str], parameters: list[str]) -> str:
    """What `softsets eval` must print, recomputed through the
    incidence-matrix oracle and rendered here.  ``known`` maps leaves
    ``(name,)`` to their matrices, and collects the values of nodes
    whose operands are leaves, which many expressions share."""
    from softsets import oracle

    binary = {"&": oracle.intersection, "|": oracle.union, "-": oracle.difference}

    def value(node):
        small = all(len(child) == 1 for child in node[1:])
        if small and node in known:
            return known[node]
        if len(node) == 2:
            result = oracle.complement(value(node[1]))
        else:
            result = binary[node[0]](value(node[1]), value(node[2]))
        if small:
            known[node] = result
        return result

    result = value(node)
    lines = [
        f"{p}: {' '.join(objects[j] for j in result.grid[i].nonzero()[0])}"
        for i, p in enumerate(parameters)
        if result.defined[i]
    ]
    return "\n".join(lines) + "\n" if lines else ""


def digest(text: str) -> bytes:
    return hashlib.sha1(text.encode()).digest()


class CliWorkload:
    """One op is one `softsets eval` over a seeded workspace file."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.objects, self.parameters, self.bindings = random_bindings(seed)
        self.text = workspace_text(self.objects, self.parameters, self.bindings)
        self.path = workdir / "workspace.sset"
        self.path.write_text(self.text, encoding="utf-8")
        self.names = list(self.bindings)
        self.results: dict[int, tuple[int, bytes, str]] = {}
        self.tokens: dict[int, int] = {}
        self.nodes: dict[int, int] = {}

    def trace_with(self, tracer) -> None:
        """Nothing to swap: every call goes through module attributes."""

    def tree(self, k: int):
        return random_expression(self.seed + k, self.names)

    def prepare(self, k: int) -> list[str]:
        tree = self.tree(k)
        text, self.tokens[k] = expression_text(tree)
        self.nodes[k] = node_count(tree)
        return ["eval", str(self.path), text]

    def run(self, argv: list[str], pause=None) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def record(self, k: int, result: tuple[int, str, str]) -> None:
        code, out, err = result
        self.results[k] = (code, digest(out), err)

    def cases(self, k: int) -> int:
        return 1

    def work(self, ops: range) -> dict[str, int]:
        """Counts for the traced ops ``ops``."""
        return {
            "tokens": sum(self.tokens[k] for k in ops),
            "nodes": sum(self.nodes[k] for k in ops),
            "workspace_bytes": len(self.text.encode()),
        }

    def verify(self) -> Outcome:
        import numpy as np
        from softsets import oracle

        ctx = new_context(self.objects, self.parameters)
        column = {o: j for j, o in enumerate(self.objects)}
        known = {}
        for name, images in self.bindings.items():
            defined = np.zeros(len(self.parameters), dtype=bool)
            grid = np.zeros((len(self.parameters), len(self.objects)), dtype=bool)
            for i, p in enumerate(self.parameters):
                if p in images:
                    defined[i] = True
                    grid[i, [column[o] for o in images[p]]] = True
            known[(name,)] = oracle.MatrixSoftSet(ctx, defined, grid)
        out = Outcome()
        for k, (code, got, err) in self.results.items():
            expected = oracle_output(self.tree(k), known, self.objects, self.parameters)
            bad = code != 0 or err != "" or got != digest(expected)
            out.add(bad, f"op {k}: exit {code}, output differs from the oracle or stderr {err!r}")
        return out


def make(name: str, seed: int, workdir: Path):
    if name == "laws-exhaustive":
        return LawsWorkload("exhaustive", seed)
    if name == "laws-random":
        return LawsWorkload("random", seed)
    if name == "cli-eval":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
