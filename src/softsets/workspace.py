"""Line-oriented text format for workspaces: one context plus a list of
named soft sets.

    universe: h1 h2 h3 h4 h5
    parameters: e1 e2 e3 e4 e5 e6 e7 e8
    softset F:
      e2: h2 h3 h5
      e3: h2 h4

`#` starts a comment running to the end of the line; blank lines are
ignored; tokens are separated by runs of any whitespace that
``str.split()`` recognises (spaces and tabs, but also characters such as
U+00A0 or U+2028), and the indentation of image lines is cosmetic.
The two header lines are required, in that order, before the first
`softset` block.  Rendering is canonical (context order everywhere, one
parameter per line), so equal workspaces render byte-identically; it
refuses an identifier that contains such whitespace or ``#``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import ContextMismatch, FormatError, LexError, SoftSetError, UnknownObject
from .expr import NAME, tokenize
from .model import Context, SoftSet, new_context

# The loader packs its soft sets itself and never calls soft_set.  The
# name stays bound because perfbench/tracing.py wraps
# ``workspace.soft_set`` by attribute, and its traced runs fail without it.
from .model import soft_set  # noqa: F401

__all__ = ["Workspace", "load_workspace", "render_workspace", "render_soft_set"]


def _is_name_lexeme(text: str) -> bool:
    # A binding name must be exactly what the expression lexer reads as
    # one NAME token, so every binding stays reachable from expressions.
    try:
        tokens = tokenize(text)
    except LexError:
        return False
    return len(tokens) == 1 and tokens[0].kind == NAME and tokens[0].text == text


@dataclass(frozen=True)
class Workspace:
    """A context together with an ordered map of named soft sets."""

    context: Context
    bindings: dict[str, SoftSet] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))
        for name, bound in self.bindings.items():
            if not _is_name_lexeme(name):
                raise ValueError(f"binding name {name!r} is not a NAME lexeme")
            if bound.context != self.context:
                raise ContextMismatch(
                    f"binding {name!r} does not share the workspace context"
                )


# Keywords of the header lines.  A parameter so named would make its
# image line read as a header.
_HEADERS = ("universe", "parameters")


def load_workspace(text: str) -> Workspace:
    """Parse the format above.  Empty image lines are dropped with a
    warning; structural problems raise FormatError with the line number.

    One pass: each object token is looked up once, and each image line's
    mask is ORed into its block's packed integer at its parameter's
    offset."""
    objects: list[str] | None = None
    ctx: Context | None = None
    bindings: dict[str, SoftSet] = {}
    block_name: str | None = None
    block_bits = 0
    block_seen: set[str] = set()

    def finish_block() -> None:
        nonlocal block_name
        if block_name is not None:
            bindings[block_name] = SoftSet(ctx, block_bits)
            block_name = None

    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if tokens[0] == "universe:":
            if objects is not None:
                raise FormatError("duplicate universe: header", lineno)
            objects = tokens[1:]
            continue
        if tokens[0] == "parameters:":
            if objects is None:
                raise FormatError("missing universe: header", lineno)
            if ctx is not None:
                raise FormatError("duplicate parameters: header", lineno)
            for name in tokens[1:]:
                if name in _HEADERS:
                    raise FormatError(f"parameter name {name!r} collides with a header", lineno)
            try:
                ctx = new_context(objects, tokens[1:])
            except SoftSetError as exc:
                raise FormatError(str(exc), lineno) from None
            continue
        if ctx is None:
            missing = "universe:" if objects is None else "parameters:"
            raise FormatError(f"missing {missing} header", lineno)
        if tokens[0] == "softset":
            if len(tokens) != 2 or not tokens[1].endswith(":"):
                raise FormatError("malformed softset line", lineno)
            name = tokens[1][:-1]
            if not _is_name_lexeme(name):
                raise FormatError(f"invalid soft set name {name!r}", lineno)
            if name in bindings or name == block_name:
                raise FormatError(f"duplicate soft set name {name!r}", lineno)
            finish_block()
            block_name = name
            block_bits = 0
            block_seen = set()
            continue
        if not tokens[0].endswith(":"):
            raise FormatError(f"malformed line {stripped!r}", lineno)
        if block_name is None:
            raise FormatError("image line outside a softset block", lineno)
        parameter = tokens[0][:-1]
        shift = ctx.parameter_offset.get(parameter)
        if shift is None:
            raise FormatError(f"unknown parameter {parameter!r}", lineno)
        if parameter in block_seen:
            raise FormatError(
                f"parameter {parameter!r} listed twice in one soft set", lineno
            )
        block_seen.add(parameter)
        try:
            mask = ctx.object_mask(tokens[1:])
        except UnknownObject as exc:
            raise FormatError(str(exc), lineno) from None
        if not mask:
            warnings.warn(
                f"line {lineno}: dropping empty image for parameter {parameter!r}",
                stacklevel=2,
            )
            continue
        block_bits |= mask << shift
    finish_block()
    if ctx is None:
        missing = "universe:" if objects is None else "parameters:"
        raise FormatError(f"missing {missing} header", len(lines))
    return Workspace(ctx, bindings)


def _is_unsafe(name: str) -> bool:
    # The loader splits tokens with str.split(), which breaks on every
    # character for which str.isspace() holds, and cuts comments at "#".
    return "#" in name or any(c.isspace() for c in name)


def _check_renderable(ctx: Context) -> None:
    for name in ctx.objects:
        if _is_unsafe(name):
            raise ValueError(f"object name {name!r} cannot be rendered")
    for name in ctx.parameters:
        if _is_unsafe(name):
            raise ValueError(f"parameter name {name!r} cannot be rendered")
        if name in _HEADERS:
            raise ValueError(f"parameter name {name!r} collides with a header")


def _image_lines(s: SoftSet, indent: str) -> list[str]:
    ctx = s.context
    # Bit k of a mask is character k of its reversed binary digits.
    digits = f"0{len(ctx.objects)}b"
    lines = []
    for parameter, mask in zip(ctx.parameters, s.masks):
        if mask:
            members = " ".join(
                o for o, d in zip(ctx.objects, format(mask, digits)[::-1]) if d == "1"
            )
            lines.append(f"{indent}{parameter}: {members}")
    return lines


def render_workspace(ws: Workspace) -> str:
    """Canonical rendering; load_workspace(render_workspace(ws)) == ws.

    Raises ValueError when an identifier cannot survive the round trip
    (whitespace or comment characters, or a parameter named like a
    header).
    """
    ctx = ws.context
    _check_renderable(ctx)
    lines = [
        f"universe: {' '.join(ctx.objects)}".rstrip(),
        f"parameters: {' '.join(ctx.parameters)}".rstrip(),
    ]
    for name, bound in ws.bindings.items():
        lines.append(f"softset {name}:")
        lines.extend(_image_lines(bound, "  "))
    return "\n".join(lines) + "\n"


def render_soft_set(s: SoftSet) -> str:
    """One parameter per line in the file format's image-line syntax,
    without indentation.  The empty soft set renders as the empty string."""
    lines = _image_lines(s, "")
    return "\n".join(lines) + "\n" if lines else ""
