"""Line-oriented text format for workspaces: one context plus a list of
named soft sets.

    universe: h1 h2 h3 h4 h5
    parameters: e1 e2 e3 e4 e5 e6 e7 e8
    softset F:
      e2: h2 h3 h5
      e3: h2 h4

One leading byte-order mark (U+FEFF) is dropped; `#` starts a comment
running to the end of the line; blank lines are ignored; tokens are
separated by runs of any whitespace that ``str.split()`` recognises
(spaces and tabs, but also characters such as U+00A0 or U+2028), and the
indentation of image lines is cosmetic.
The two header lines are required, in that order, before the first
`softset` block.  Rendering is canonical (context order everywhere, one
parameter per line), so equal workspaces render byte-identically; it
refuses an identifier that contains such whitespace or ``#``.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping

from .errors import ContextMismatch, FormatError, SoftSetError, UnknownObject
from .expr import is_name
from .model import Context, SoftSet, _Frozen, _image_lines, new_context

# The loader packs its soft sets itself and never calls soft_set.  The
# name stays bound because perfbench/tracing.py wraps
# ``workspace.soft_set`` by attribute, and its traced runs fail without it.
from .model import soft_set  # noqa: F401

__all__ = ["Workspace", "load_workspace", "render_workspace", "render_soft_set"]


class Workspace(_Frozen):
    """A context together with an ordered map of named soft sets.

    Equal when the contexts and the maps are equal; unhashable, as its
    map is a dict."""

    __slots__ = ("context", "bindings")
    __match_args__ = ("context", "bindings")

    context: Context
    bindings: dict[str, SoftSet]

    def __init__(self, context: Context, bindings: Mapping[str, SoftSet] = {}):
        bindings = dict(bindings)
        for name, bound in bindings.items():
            # A binding name must be exactly one NAME of the expression
            # language (the loader checks the same), so that every
            # binding stays reachable from expressions.
            if not is_name(name):
                raise ValueError(f"binding name {name!r} is not a NAME lexeme")
            if bound.context != context:
                raise ContextMismatch(
                    f"binding {name!r} does not share the workspace context"
                )
        _set_context(self, context)
        _set_bindings(self, bindings)


# The slots' own setters, bound once: _Frozen.__setattr__ refuses every
# write.
_set_context = Workspace.context.__set__
_set_bindings = Workspace.bindings.__set__


# Keywords of the header lines.  A parameter so named would make its
# image line read as a header.
_HEADERS = ("universe", "parameters")


def load_workspace(text: str) -> Workspace:
    """Parse the format above.  Empty image lines are dropped with a
    warning; structural problems raise FormatError with the line number.

    One pass, one lookup per line to find image lines: the ``parameters:``
    header builds a map from each ``parameter:`` token to the parameter's
    offset, which the first ``softset`` line turns on.  A line whose first
    token is in it is an image line, and its mask is ORed into the open
    block's packed integer at that offset; every other line is a header,
    a ``softset`` line or an error."""
    objects: list[str] | None = None
    ctx: Context | None = None
    packed: dict[str, int] = {}  # each soft set's bits, in file order
    block: str | None = None  # the name of the open softset block
    block_seen: set[str] = set()
    image_keys: dict[str, int] = {}  # built at the parameters: header
    keys: dict[str, int] = {}  # image_keys from the first softset line on

    lines = text.removeprefix("\ufeff").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        shift = keys.get(head)
        if shift is not None:
            if head in block_seen:
                raise FormatError(
                    f"parameter {head[:-1]!r} listed twice in one soft set", lineno
                )
            block_seen.add(head)
            try:
                mask = object_mask(tokens[1:])
            except UnknownObject as exc:
                raise FormatError(str(exc), lineno) from None
            if mask:
                packed[block] |= mask << shift
            else:
                warnings.warn(
                    f"line {lineno}: dropping empty image for parameter {head[:-1]!r}",
                    stacklevel=2,
                )
            continue
        if head == "universe:":
            if objects is not None:
                raise FormatError("duplicate universe: header", lineno)
            objects = tokens[1:]
            continue
        if head == "parameters:":
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
            image_keys = {p + ":": offset for p, offset in ctx.parameter_offset.items()}
            object_mask = ctx.object_mask
            continue
        if ctx is None:
            missing = "universe:" if objects is None else "parameters:"
            raise FormatError(f"missing {missing} header", lineno)
        if head == "softset":
            if len(tokens) != 2 or not tokens[1].endswith(":"):
                raise FormatError("malformed softset line", lineno)
            name = tokens[1][:-1]
            if not is_name(name):
                raise FormatError(f"invalid soft set name {name!r}", lineno)
            if name in packed:
                raise FormatError(f"duplicate soft set name {name!r}", lineno)
            packed[name] = 0
            block = name
            block_seen = set()
            keys = image_keys
            continue
        if not head.endswith(":"):
            raise FormatError(f"malformed line {raw.split('#', 1)[0].strip()!r}", lineno)
        if block is None:
            raise FormatError("image line outside a softset block", lineno)
        raise FormatError(f"unknown parameter {head[:-1]!r}", lineno)
    if ctx is None:
        missing = "universe:" if objects is None else "parameters:"
        raise FormatError(f"missing {missing} header", len(lines))
    return Workspace(ctx, {name: SoftSet(ctx, bits) for name, bits in packed.items()})


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
