"""The bundled houses example: two buyers' views of five houses under
eight parameters, the frozen expected results of the four operations on
them, and a report that recomputes everything against those fixtures.

The expected values are recorded twice, as structured assignments and as
canonical renderings, and the report checks both forms independently so
a bug in rendering cannot mask a bug in the algebra (or vice versa).
"""

from __future__ import annotations

import os

from . import algebra
from .model import Context, SoftSet, new_context, soft_set
from .workspace import Workspace, load_workspace, render_soft_set

__all__ = [
    "HOUSES_OBJECTS",
    "HOUSES_PARAMETERS",
    "houses_context",
    "houses_f",
    "houses_g",
    "houses_workspace",
    "bundled_workspace_text",
    "EXPECTED_INTERSECTION",
    "EXPECTED_UNION",
    "EXPECTED_COMPLEMENT",
    "EXPECTED_DIFFERENCE",
    "PUBLISHED_DIFFERENCE_E2",
    "paper_example_report",
]

HOUSES_OBJECTS = ("h1", "h2", "h3", "h4", "h5")
HOUSES_PARAMETERS = ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8")


def houses_context() -> Context:
    return new_context(HOUSES_OBJECTS, HOUSES_PARAMETERS)


def houses_f(ctx: Context | None = None) -> SoftSet:
    """The first buyer's view, defined on {e2, e3, e4, e5, e7}."""
    ctx = ctx if ctx is not None else houses_context()
    return soft_set(
        ctx,
        [
            ("e2", ["h2", "h3", "h5"]),
            ("e3", ["h2", "h4"]),
            ("e4", ["h1"]),
            ("e5", ["h1", "h2", "h3", "h4", "h5"]),
            ("e7", ["h3", "h5"]),
        ],
    )


def houses_g(ctx: Context | None = None) -> SoftSet:
    """The second buyer's view, defined on {e1, ..., e7}."""
    ctx = ctx if ctx is not None else houses_context()
    return soft_set(
        ctx,
        [
            ("e1", ["h3", "h5"]),
            ("e2", ["h4"]),
            ("e3", ["h2", "h4"]),
            ("e4", ["h1"]),
            ("e5", ["h2", "h3", "h4", "h5"]),
            ("e6", ["h3"]),
            ("e7", ["h3"]),
        ],
    )


def houses_workspace() -> Workspace:
    ctx = houses_context()
    return Workspace(ctx, {"F": houses_f(ctx), "G": houses_g(ctx)})


def bundled_workspace_text() -> str:
    """The bundled ``houses.sset``, installed next to this module."""
    path = os.path.join(os.path.dirname(__file__), "data", "houses.sset")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# Frozen expected results.  Structured and rendered forms are maintained
# by hand, on purpose: they are fixtures, not derived data.

EXPECTED_INTERSECTION = {
    "e3": frozenset({"h2", "h4"}),
    "e4": frozenset({"h1"}),
    "e5": frozenset({"h2", "h3", "h4", "h5"}),
    "e7": frozenset({"h3"}),
}

EXPECTED_UNION = {
    "e1": frozenset({"h3", "h5"}),
    "e2": frozenset({"h2", "h3", "h4", "h5"}),
    "e3": frozenset({"h2", "h4"}),
    "e4": frozenset({"h1"}),
    "e5": frozenset({"h1", "h2", "h3", "h4", "h5"}),
    "e6": frozenset({"h3"}),
    "e7": frozenset({"h3", "h5"}),
}

EXPECTED_COMPLEMENT = {
    "e1": frozenset({"h1", "h2", "h3", "h4", "h5"}),
    "e2": frozenset({"h1", "h4"}),
    "e3": frozenset({"h1", "h3", "h5"}),
    "e4": frozenset({"h2", "h3", "h4", "h5"}),
    "e6": frozenset({"h1", "h2", "h3", "h4", "h5"}),
    "e7": frozenset({"h1", "h2", "h4"}),
    "e8": frozenset({"h1", "h2", "h3", "h4", "h5"}),
}

EXPECTED_DIFFERENCE = {
    "e2": frozenset({"h2", "h3", "h5"}),
    "e5": frozenset({"h1"}),
    "e7": frozenset({"h5"}),
}

# What the published worked example prints as the difference image at
# e2.  Removing {h4} from {h2, h3, h5} cannot shrink it, so the recorded
# fixture above keeps the definitional value instead.
PUBLISHED_DIFFERENCE_E2 = frozenset({"h2"})

RENDERED_INTERSECTION = """\
e3: h2 h4
e4: h1
e5: h2 h3 h4 h5
e7: h3
"""

RENDERED_UNION = """\
e1: h3 h5
e2: h2 h3 h4 h5
e3: h2 h4
e4: h1
e5: h1 h2 h3 h4 h5
e6: h3
e7: h3 h5
"""

RENDERED_COMPLEMENT = """\
e1: h1 h2 h3 h4 h5
e2: h1 h4
e3: h1 h3 h5
e4: h2 h3 h4 h5
e6: h1 h2 h3 h4 h5
e7: h1 h2 h4
e8: h1 h2 h3 h4 h5
"""

RENDERED_DIFFERENCE = """\
e2: h2 h3 h5
e5: h1
e7: h5
"""

_ERRATUM_NOTE = (
    "note: ERRATUM: the published worked example prints \"e2: h2\" for the "
    "difference, but removing {h4} from {h2 h3 h5} removes nothing; the "
    "fixture asserts the definitional value e2: h2 h3 h5."
)


def _check_section(
    title: str,
    computed: SoftSet,
    expected_assignment: dict,
    expected_rendered: str,
    lines: list[str],
) -> bool:
    lines.append(f"== {title}")
    rendered = render_soft_set(computed)
    lines.extend(rendered.rstrip("\n").split("\n") if rendered else [])
    structured_ok = dict(computed.assignment) == expected_assignment
    rendered_ok = rendered == expected_rendered
    if structured_ok and rendered_ok:
        lines.append("OK: matches the recorded fixture")
        return True
    lines.append("FAIL: differs from the recorded fixture")
    lines.append("  expected:")
    lines.extend(
        "    " + line for line in expected_rendered.rstrip("\n").split("\n")
    )
    return False


def paper_example_report() -> tuple[str, bool]:
    """Recompute the four operations on the bundled workspace and compare
    them with the frozen fixtures.  Returns (report text, all matched)."""
    lines: list[str] = []
    ok = True

    ws = load_workspace(bundled_workspace_text())
    reference = houses_workspace()
    lines.append("== workspace")
    lines.append(
        f"loaded {', '.join(ws.bindings)} over {len(ws.context.objects)} objects "
        f"and {len(ws.context.parameters)} parameters"
    )
    if ws == reference:
        lines.append("OK: bundled file matches the recorded assignment")
    else:
        lines.append("FAIL: bundled file differs from the recorded assignment")
        ok = False

    f = ws.bindings.get("F", houses_f())
    g = ws.bindings.get("G", houses_g())
    ok &= _check_section(
        "F & G (intersection)",
        algebra.intersection(f, g),
        EXPECTED_INTERSECTION,
        RENDERED_INTERSECTION,
        lines,
    )
    ok &= _check_section(
        "F | G (union)", algebra.union(f, g), EXPECTED_UNION, RENDERED_UNION, lines
    )
    ok &= _check_section(
        "F^c (complement)",
        algebra.complement(f),
        EXPECTED_COMPLEMENT,
        RENDERED_COMPLEMENT,
        lines,
    )
    ok &= _check_section(
        "F - G (difference)",
        algebra.difference(f, g),
        EXPECTED_DIFFERENCE,
        RENDERED_DIFFERENCE,
        lines,
    )
    lines.append(_ERRATUM_NOTE)
    lines.append(
        "all fixtures match" if ok else "one or more fixtures differ"
    )
    return "\n".join(lines) + "\n", bool(ok)
