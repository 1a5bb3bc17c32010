"""Expression language for soft-set algebra over named soft sets.

Grammar (loosest binding first):

    expression := term { "|" term }
    term       := factor { ("&" | "-" | "\\") factor }
    factor     := atom { "^c" }
    atom       := NAME | "EMPTY" | "UNIVERSAL" | "(" expression ")"

`&` and `-` share a precedence level and all binary operators associate
to the left; `^c` is postfix.  Names match [A-Za-z_][A-Za-z0-9_]*, with
EMPTY and UNIVERSAL reserved as constants.

Laws (``parse_formula``) extend the language with relations and
connectives:

    formula     := conjunction [ ("=>" | "<=>") conjunction ]
    conjunction := relation { "and" relation }
    relation    := expression ("=" | "<=") expression

`=` is equality and `<=` the subset relation; `and` is a connective only
between relations, so it stays an ordinary name in expressions.

Operator chains and `^c` runs of any length parse in loops; parentheses
recurse, so they nest at most MAX_NESTING deep.  Evaluation, rendering,
comparison, hashing and ``repr`` walk the tree with explicit stacks,
mostly through ``fold``, so every tree the parser builds evaluates,
renders and compares; and as rendering emits only the parentheses the
tree needs, its text nests no deeper than the source and parses again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

from . import algebra
from .errors import ContextMismatch, LexError, ParseError, UnboundName
from .model import Context, SoftSet, empty_soft_set, universal_soft_set

__all__ = [
    "Token",
    "Expr",
    "Name",
    "Empty",
    "Universal",
    "Complement",
    "Intersect",
    "Union",
    "Difference",
    "Formula",
    "tokenize",
    "parse",
    "parse_text",
    "parse_formula",
    "fold",
    "evaluate",
    "render",
]

# Deepest parenthesis nesting the parser accepts.  Each level costs four
# Python frames (expression, term, factor, atom), so this stays well
# inside the default recursion limit of 1000 even under a deep caller.
MAX_NESTING = 200

# Token kinds.
NAME = "NAME"
AMP = "AMP"
PIPE = "PIPE"
MINUS = "MINUS"
CARET_C = "CARET_C"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
EMPTY_KW = "EMPTY_KW"
UNIV_KW = "UNIV_KW"
EQ = "EQ"
LE = "LE"
IMPLIES = "IMPLIES"
IFF = "IFF"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


class _Node:
    """Base of expression and formula nodes.

    Trees may be far deeper than the recursion limit (a 3,000-term chain
    parses into a tree 3,000 deep), so ``==``, ``hash`` and ``repr`` walk
    them with explicit stacks instead of the recursive methods that
    dataclasses generate."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The tree as one flat tuple, in post-order: each node's type,
        followed by a name's identifier or a formula's operator.  Every
        node type has a fixed number of children, so the tuple determines
        the tree."""
        key: list = []

        def visit(node, *_):
            key.append(type(node))
            if isinstance(node, Name):
                key.append(node.identifier)
            elif isinstance(node, Formula):
                key.append(node.op)

        fold(self, visit)
        return tuple(key)

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        """The dataclass form, e.g. ``Complement(child=Name(identifier='F'))``."""
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            pieces: list = [f"{type(item).__name__}("]
            for i, f in enumerate(fields(item)):
                value = getattr(item, f.name)
                separator = ", " if i else ""
                pieces += [separator, f"{f.name}=", value if isinstance(value, _Node) else repr(value)]
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)


class Expr(_Node):
    """Base class for expression tree nodes."""

    __slots__ = ()


# eq=False and repr=False keep the stack-based methods of _Node.
_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Name(Expr):
    identifier: str

    def __post_init__(self):
        if not self.identifier:
            raise ValueError("Name identifier must be nonempty")


@_node
class Empty(Expr):
    pass


@_node
class Universal(Expr):
    pass


@_node
class Complement(Expr):
    child: Expr


@_node
class Intersect(Expr):
    left: Expr
    right: Expr


@_node
class Union(Expr):
    left: Expr
    right: Expr


@_node
class Difference(Expr):
    left: Expr
    right: Expr


@_node
class Formula(_Node):
    """A law node: a relation (``=``, ``<=``) between two expressions, or
    a connective (``and``, ``=>``, ``<=>``) between two formulas."""

    op: str
    left: Expr | Formula
    right: Expr | Formula


_BINARY = (Intersect, Union, Difference, Formula)


# ---------------------------------------------------------------------------
# Lexer

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_SINGLE = {
    "&": AMP,
    "|": PIPE,
    "-": MINUS,
    "\\": MINUS,
    "(": LPAREN,
    ")": RPAREN,
}

_KEYWORDS = {"EMPTY": EMPTY_KW, "UNIVERSAL": UNIV_KW}

_RELATION_RE = re.compile(r"<=>|<=|=>|=")
_RELATIONS = {"<=>": IFF, "<=": LE, "=>": IMPLIES, "=": EQ}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, column))
            column += 1
            i += 1
            continue
        if ch == "^":
            if i + 1 < len(text) and text[i + 1] == "c":
                tokens.append(Token(CARET_C, "^c", line, column))
                column += 2
                i += 2
                continue
            raise LexError("expected 'c' after '^'", line, column)
        m = _RELATION_RE.match(text, i)
        if m:
            word = m.group()
            tokens.append(Token(_RELATIONS[word], word, line, column))
            column += len(word)
            i += len(word)
            continue
        m = _NAME_RE.match(text, i)
        if m:
            word = m.group()
            kind = _KEYWORDS.get(word, NAME)
            tokens.append(Token(kind, word, line, column))
            column += len(word)
            i += len(word)
            continue
        raise LexError(f"illegal character {ch!r}", line, column)
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def _end_position(self) -> tuple[int, int]:
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.column + len(last.text)
        return 1, 1

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expression(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind == PIPE:
            self.advance()
            node = Union(node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in (AMP, MINUS):
            op = self.advance()
            right = self.factor()
            node = Intersect(node, right) if op.kind == AMP else Difference(node, right)
        return node

    def factor(self) -> Expr:
        node = self.atom()
        while (tok := self.peek()) is not None and tok.kind == CARET_C:
            self.advance()
            node = Complement(node)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            line, column = self._end_position()
            raise ParseError("unexpected end of input", line, column)
        if tok.kind == NAME:
            self.advance()
            return Name(tok.text)
        if tok.kind == EMPTY_KW:
            self.advance()
            return Empty()
        if tok.kind == UNIV_KW:
            self.advance()
            return Universal()
        if tok.kind == LPAREN:
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column
                )
            self.advance()
            self.depth += 1
            node = self.expression()
            self.depth -= 1
            closing = self.peek()
            if closing is None or closing.kind != RPAREN:
                raise ParseError("unbalanced parenthesis", tok.line, tok.column)
            self.advance()
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def formula(self) -> Formula:
        node = self.conjunction()
        tok = self.peek()
        if tok is not None and tok.kind in (IMPLIES, IFF):
            self.advance()
            node = Formula(tok.text, node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.relation()
        while (tok := self.peek()) is not None and tok.kind == NAME and tok.text == "and":
            self.advance()
            node = Formula("and", node, self.relation())
        return node

    def relation(self) -> Formula:
        left = self.expression()
        tok = self.peek()
        if tok is None or tok.kind not in (EQ, LE):
            line, column = (tok.line, tok.column) if tok else self._end_position()
            raise ParseError("expected '=' or '<='", line, column)
        self.advance()
        return Formula(tok.text, left, self.expression())

    def finish(self) -> None:
        trailing = self.peek()
        if trailing is not None:
            raise ParseError(
                f"trailing input starting at {trailing.text!r}", trailing.line, trailing.column
            )


def parse(tokens: Sequence[Token]) -> Expr:
    parser = _Parser(tokens)
    node = parser.expression()
    parser.finish()
    return node


def parse_text(text: str) -> Expr:
    return parse(tokenize(text))


def parse_formula(text: str) -> Formula:
    """Parse the text of a law, e.g. ``F <= G <=> F & G = F``."""
    parser = _Parser(tokenize(text))
    node = parser.formula()
    parser.finish()
    return node


# ---------------------------------------------------------------------------
# Evaluation and rendering


def fold(ast: Expr | Formula, combine: Callable):
    """Post-order walk over an explicit stack: ``combine(node, *values)``
    gets the values of a node's children, left first, and returns the
    node's value.  Leaves get no values.  Returns the root's value."""
    values: list = []
    stack: list[tuple[Expr | Formula, bool]] = [(ast, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Complement):
            if ready:
                values.append(combine(node, values.pop()))
            else:
                stack += ((node, True), (node.child, False))
        elif isinstance(node, _BINARY):
            if ready:
                right = values.pop()
                values.append(combine(node, values.pop(), right))
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        else:
            values.append(combine(node))
    return values.pop()


def evaluate(ast: Expr, env: Mapping[str, SoftSet], ctx: Context) -> SoftSet:
    """Evaluate bottom-up, delegating each operator to the algebra."""

    def combine(node: Expr, *values: SoftSet) -> SoftSet:
        if isinstance(node, Name):
            if node.identifier not in env:
                raise UnboundName(node.identifier)
            value = env[node.identifier]
            if value.context is not ctx and value.context != ctx:
                raise ContextMismatch(
                    f"name {node.identifier} is bound in a different context"
                )
            return value
        if isinstance(node, Empty):
            return empty_soft_set(ctx)
        if isinstance(node, Universal):
            return universal_soft_set(ctx)
        if isinstance(node, Complement):
            return algebra.complement(*values)
        if isinstance(node, Intersect):
            return algebra.intersection(*values)
        if isinstance(node, Union):
            return algebra.union(*values)
        if isinstance(node, Difference):
            return algebra.difference(*values)
        raise TypeError(f"not an expression node: {node!r}")

    return fold(ast, combine)


# Symbol and precedence level of each binary operator; ``^c`` binds
# tighter, and atoms tightest.
_OPERATORS = {Union: ("|", 1), Intersect: ("&", 2), Difference: ("-", 2)}
_POSTFIX = 3
_ATOM = 4


def render(ast: Expr) -> str:
    """Text that reparses to an identical tree, with only the parentheses
    that precedence and left associativity need: an operand is
    parenthesized when it binds looser than its operator, and a right
    operand also when it binds just as tightly.  ``(F & G) & H`` renders
    as ``F & G & H``, ``F | (G & H)`` as ``F | G & H``.  Every pair of
    parentheses in the text stands for one that any source text of the
    tree needs, so the rendering nests no deeper than its source."""

    def wrap(part: tuple[str, int], level: int) -> str:
        text, part_level = part
        return f"({text})" if part_level < level else text

    def combine(node: Expr, *parts: tuple[str, int]) -> tuple[str, int]:
        if isinstance(node, Name):
            return node.identifier, _ATOM
        if isinstance(node, Empty):
            return "EMPTY", _ATOM
        if isinstance(node, Universal):
            return "UNIVERSAL", _ATOM
        if isinstance(node, Complement):
            return f"{wrap(parts[0], _POSTFIX)}^c", _POSTFIX
        if type(node) in _OPERATORS:
            symbol, level = _OPERATORS[type(node)]
            return f"{wrap(parts[0], level)} {symbol} {wrap(parts[1], level + 1)}", level
        raise TypeError(f"not an expression node: {node!r}")

    return fold(ast, combine)[0]
