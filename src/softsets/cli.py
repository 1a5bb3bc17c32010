"""Command-line interface.

Subcommands: ``eval`` (evaluate an expression over a workspace file),
``check-laws`` (run the law catalog exhaustively or on seeded random
cases), ``show`` (canonically re-render a workspace), ``paper-example``
(recompute the bundled houses example, whose F and G live only in the
bundled ``houses.sset``, against the results recorded in ``houses``).

Exit codes are a stable contract: 0 success, 1 law or fixture failure,
2 usage/lex/parse error, 3 data error (bad workspace, unreadable file,
enumeration cap exceeded).  Reports go to standard output, diagnostics
to standard error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import cache

from . import expr
from .errors import DEFAULT_CAP, LexError, ParseError, SoftSetError, UnboundName
from .model import Context, new_context
from .workspace import Workspace, load_workspace, render_soft_set, render_workspace

__all__ = ["main", "run"]


def _int_at_least(low: int, message: str):
    """An argparse type: an int of at least ``low``, else ``message``.
    It is named ``int``, so a non-integer reads ``invalid int value``."""

    def int_(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value

    int_.__name__ = "int"
    return int_


# One parser per process: parsing never changes it, so repeated calls
# of main in one process (tests, benchmarks) share it.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softsets",
        description="Soft-set algebra: evaluate expressions, verify laws, "
        "replay the bundled houses example.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate an expression over the soft sets of a workspace file"
    )
    p_eval.add_argument("workspace", help="path to a workspace file")
    p_eval.add_argument(
        "expression",
        help="expression over the workspace names, e.g. '(F & G)^c'",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check-laws", help="run the law catalog")
    mode = p_check.add_mutually_exclusive_group()
    mode.add_argument(
        "--exhaustive",
        action="store_true",
        help="check every argument tuple over the generated context",
    )
    mode.add_argument(
        "--random",
        action="store_true",
        help="check seeded random argument tuples (default)",
    )
    p_check.add_argument(
        "--universe", type=_int_at_least(0, "must not be negative"), default=4, metavar="N",
        help="number of objects in the generated context (default 4)",
    )
    p_check.add_argument(
        "--params", type=_int_at_least(0, "must not be negative"), default=3, metavar="N",
        help="number of parameters in the generated context (default 3)",
    )
    p_check.add_argument(
        "--trials", type=_int_at_least(1, "must be at least 1"), default=1000, metavar="N",
        help="random trials per law (default 1000)",
    )
    p_check.add_argument(
        "--seed", type=_int_at_least(0, "must not be negative"), default=0, metavar="N",
        help="seed for random mode (default 0)",
    )
    p_check.add_argument(
        "--cap", type=_int_at_least(1, "must be at least 1"), default=DEFAULT_CAP, metavar="N",
        help=f"largest tuple count allowed in exhaustive mode (default {DEFAULT_CAP})",
    )
    p_check.add_argument(
        "--law", action="append", metavar="ID",
        help="check only this law id; repeatable",
    )
    p_check.set_defaults(func=_cmd_check_laws)

    p_show = sub.add_parser(
        "show", help="load a workspace file and print its canonical rendering"
    )
    p_show.add_argument("workspace", help="path to a workspace file")
    p_show.set_defaults(func=_cmd_show)

    p_paper = sub.add_parser(
        "paper-example",
        help="recompute the bundled houses example and compare with its fixtures",
    )
    p_paper.set_defaults(func=_cmd_paper_example)

    return parser


def _load(path: str) -> Workspace:
    """Load a workspace file, printing each of the loader's warnings
    (empty image lines) as a ``warning:`` line on standard error."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ws = load_workspace(text)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return ws


def _cmd_eval(args: argparse.Namespace) -> int:
    ws = _load(args.workspace)
    ast = expr.parse_text(args.expression)
    result = expr.evaluate(ast, ws.bindings, ws.context)
    sys.stdout.write(render_soft_set(result))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    sys.stdout.write(render_workspace(_load(args.workspace)))
    return 0


def _generated_context(n_objects: int, n_parameters: int) -> Context:
    objects = tuple(f"x{i}" for i in range(1, n_objects + 1))
    parameters = tuple(f"e{i}" for i in range(1, n_parameters + 1))
    return new_context(objects, parameters)


def _cmd_check_laws(args: argparse.Namespace) -> int:
    # Imported here: the law catalog, and the dataclasses its reports
    # are, serve only this subcommand.
    from .laws import check_cap, check_exhaustive, check_random, law_catalog, lookup

    ctx = _generated_context(args.universe, args.params)
    if args.law:
        try:
            selected = tuple(lookup(law_id) for law_id in args.law)
        except KeyError as exc:
            print(f"error: unknown law id {exc.args[0]!r}", file=sys.stderr)
            return 2
    else:
        selected = law_catalog()

    exhaustive = args.exhaustive
    if exhaustive:
        # Refuse the whole run up front rather than failing mid-report;
        # main reports EnumerationTooLarge with exit code 3.
        for law in selected:
            check_cap(law, ctx, args.cap)

    failures = 0
    for law in selected:
        if exhaustive:
            report = check_exhaustive(law, ctx, cap=args.cap)
        else:
            report = check_random(law, ctx, args.trials, args.seed)
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.law_id}: {report.mode}, {report.cases} cases, {status}")
        if report.counterexample is not None:
            failures += 1
            cex = report.counterexample
            print(f"  law: {law.statement}")
            print(f"  violation: {cex.detail}")
            for line in cex.rendered.rstrip("\n").split("\n"):
                print(f"  {line}")
    return 1 if failures else 0


def _cmd_paper_example(args: argparse.Namespace) -> int:
    from .houses import paper_example_report

    text, ok = paper_example_report()
    sys.stdout.write(text)
    return 0 if ok else 1


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "expression", None) == []:
        # argparse (Python 3.11 at least) reads a "--" that follows both
        # the "--" separator and the workspace as [], not as text.
        args.expression = "--"
    try:
        return args.func(args)
    except (LexError, ParseError, UnboundName) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SoftSetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The ``[project.scripts]`` target: passes ``main``'s exit code to ``sys.exit``."""
    sys.exit(main())


if __name__ == "__main__":
    run()
