"""The bundled houses example: two buyers' views F and G of five houses
under eight parameters, the recorded results of the four operations on
them, and a report that recomputes each result against its record.

F and G live only in the bundled ``houses.sset``.  A second copy here
would add no check: the recorded results pin the file, since
F = (F^c)^c and G = (F & G) | ((F | G) - F), and a change to the frame
changes F^c.  Each result is recorded once, as its rendering, and
checked twice: by ``algebra.equals`` against the lines read back with
``model.soft_set`` (neither loader nor renderer), and byte for byte as
rendered.  So a rendering bug cannot mask an algebra bug, or vice versa.
"""

from __future__ import annotations

import os

from . import algebra, expr
from .errors import SoftSetError
from .model import Context, SoftSet, soft_set
from .workspace import Workspace, load_workspace, render_soft_set

__all__ = [
    "bundled_workspace_text", "houses_workspace", "recorded_soft_set",
    "RESULTS", "PUBLISHED_DIFFERENCE_E2", "paper_example_report",
]


def bundled_workspace_text() -> str:
    """The bundled ``houses.sset``, installed next to this module."""
    path = os.path.join(os.path.dirname(__file__), "data", "houses.sset")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def houses_workspace() -> Workspace:
    return load_workspace(bundled_workspace_text())


def recorded_soft_set(ctx: Context, rendered: str) -> SoftSet:
    """A recorded rendering read back as a soft set over ``ctx``."""
    pairs = (line.split(":", 1) for line in rendered.splitlines())
    return soft_set(ctx, [(p, objs.split()) for p, objs in pairs])


# The recorded results, one row each: (expression, name of its algebra
# function, canonical rendering).  They are fixtures, written by hand.
RESULTS = (
    ("F & G", "intersection", """\
e3: h2 h4
e4: h1
e5: h2 h3 h4 h5
e7: h3
"""),
    ("F | G", "union", """\
e1: h3 h5
e2: h2 h3 h4 h5
e3: h2 h4
e4: h1
e5: h1 h2 h3 h4 h5
e6: h3
e7: h3 h5
"""),
    ("F^c", "complement", """\
e1: h1 h2 h3 h4 h5
e2: h1 h4
e3: h1 h3 h5
e4: h2 h3 h4 h5
e6: h1 h2 h3 h4 h5
e7: h1 h2 h4
e8: h1 h2 h3 h4 h5
"""),
    ("F - G", "difference", """\
e2: h2 h3 h5
e5: h1
e7: h5
"""),
)

# What the published worked example prints as the difference image at
# e2.  Removing {h4} from {h2, h3, h5} cannot shrink it, so the recorded
# result above keeps the definitional value instead.
PUBLISHED_DIFFERENCE_E2 = frozenset({"h2"})

_ERRATUM_NOTE = (
    "note: ERRATUM: the published worked example prints \"e2: h2\" for the "
    "difference, but removing {h4} from {h2 h3 h5} removes nothing; the "
    "fixture asserts the definitional value e2: h2 h3 h5."
)


def paper_example_report() -> tuple[str, bool]:
    """Recompute each recorded result on the bundled workspace and compare
    it with its record.  Returns (report text, all matched)."""
    ws = houses_workspace()
    ctx = ws.context
    ok = list(ws.bindings) == ["F", "G"]
    lines = [
        "== workspace",
        f"loaded {', '.join(ws.bindings)} over {len(ctx.objects)} objects "
        f"and {len(ctx.parameters)} parameters",
        "OK: bundled file matches the recorded assignment"
        if ok
        else "FAIL: bundled file differs from the recorded assignment",
    ]
    for expression, name, rendered in RESULTS:
        lines.append(f"== {expression} ({name})")
        try:
            # evaluate looks each algebra function up at the call, so a
            # patched one is what the section checks.
            result = expr.evaluate(expr.parse_text(expression), ws.bindings, ctx)
            text = render_soft_set(result)
            matched = text == rendered and algebra.equals(
                result, recorded_soft_set(ctx, rendered)
            )
        except SoftSetError as exc:
            text, matched = f"error: {exc}\n", False
        lines.extend(text.splitlines())
        if matched:
            lines.append("OK: matches the recorded fixture")
        else:
            ok = False
            lines.append("FAIL: differs from the recorded fixture")
            lines.append("  expected:")
            lines.extend("    " + line for line in rendered.splitlines())
    lines.append(_ERRATUM_NOTE)
    lines.append("all fixtures match" if ok else "one or more fixtures differ")
    return "\n".join(lines) + "\n", ok
