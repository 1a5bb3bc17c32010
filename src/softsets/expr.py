"""Expression language for soft-set algebra over named soft sets.

Grammar (loosest binding first):

    expression := term { "|" term }
    term       := factor { ("&" | "-" | "\\") factor }
    factor     := atom { "^c" }
    atom       := NAME | "EMPTY" | "UNIVERSAL" | "(" expression ")"

`&` and `-` share a precedence level and all binary operators associate
to the left; `^c` is postfix.  The lexer matches one pattern per lexeme
and looks its kind up in one table: spaces, tabs, carriage returns and
newlines only separate lexemes, and a word [A-Za-z_][A-Za-z0-9_]* that
the table does not list (EMPTY and UNIVERSAL are reserved) is a NAME, as
``is_name`` tells.

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
from collections.abc import Callable, Mapping, Sequence

from . import algebra
from .errors import ContextMismatch, LexError, ParseError, UnboundName
from .model import Context, SoftSet, _Frozen, empty_soft_set, universal_soft_set

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
    "is_name",
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
END = "END"  # closes the parser's input; tokenize never emits it


class Token(_Frozen):
    """One lexeme: its kind, its text and its 1-based position."""

    __slots__ = ("kind", "text", "line", "column")
    __match_args__ = ("kind", "text", "line", "column")

    kind: str
    text: str
    line: int
    column: int

    def __init__(self, kind: str, text: str, line: int, column: int):
        _set_kind(self, kind)
        _set_text(self, text)
        _set_line(self, line)
        _set_column(self, column)


class _Node(_Frozen):
    """Base of expression and formula nodes.

    Each node class lists its fields in ``__match_args__``, in
    constructor order, and pickles and copies through ``_Frozen``.
    Trees may be far deeper than the recursion limit (a 3,000-term chain
    parses into a tree 3,000 deep), so nodes override ``_Frozen``'s
    ``==``, ``hash`` and ``repr`` with ones that walk the tree with
    explicit stacks instead of recursing."""

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
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                separator = ", " if i else ""
                pieces += [separator, f"{name}=", value if isinstance(value, _Node) else repr(value)]
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)


class Expr(_Node):
    """Base class for expression tree nodes."""

    __slots__ = ()


class _Binary(_Node):
    """A node with two children: a binary operator, or a Formula."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    left: Expr | Formula
    right: Expr | Formula

    def __init__(self, left: Expr | Formula, right: Expr | Formula):
        _set_left(self, left)
        _set_right(self, right)


class Name(Expr):
    __slots__ = ("identifier",)
    __match_args__ = ("identifier",)

    identifier: str

    def __init__(self, identifier: str):
        if not identifier:
            raise ValueError("Name identifier must be nonempty")
        _set_identifier(self, identifier)


class Empty(Expr):
    __slots__ = ()


class Universal(Expr):
    __slots__ = ()


# Each operation node names its function in ``softsets.algebra``, and a
# binary one also its symbol and precedence level (``|`` binds loosest).
# They are class attributes, not fields: ``__match_args__`` lists none.
class Complement(Expr):
    __slots__ = ("child",)
    __match_args__ = ("child",)
    function = "complement"

    child: Expr

    def __init__(self, child: Expr):
        _set_child(self, child)


class Intersect(_Binary, Expr):
    __slots__ = ()
    function, symbol, level = "intersection", "&", 2


class Union(_Binary, Expr):
    __slots__ = ()
    function, symbol, level = "union", "|", 1


class Difference(_Binary, Expr):
    __slots__ = ()
    function, symbol, level = "difference", "-", 2


class Formula(_Binary):
    """A law node: a relation (``=``, ``<=``) between two expressions, or
    a connective (``and``, ``=>``, ``<=>``) between two formulas."""

    __slots__ = ("op",)
    __match_args__ = ("op", "left", "right")

    op: str

    def __init__(self, op: str, left: Expr | Formula, right: Expr | Formula):
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


# The slots' own setters, bound once: _Frozen.__setattr__ refuses every
# write.
_set_kind = Token.kind.__set__
_set_text = Token.text.__set__
_set_line = Token.line.__set__
_set_column = Token.column.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_identifier = Name.identifier.__set__
_set_child = Complement.child.__set__
_set_op = Formula.op.__set__


# ---------------------------------------------------------------------------
# Lexer

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

# Blanks, then at most one lexeme, the longer relations first.  The
# pattern always matches; its group is None where no lexeme starts.
_LEXEME_RE = re.compile(rf"[ \t\r]*(<=>|<=|=>|=|\^c|[&|\\()-]|{_NAME})?")

# Kind of every lexeme that is not a NAME.
_KINDS = {
    "&": AMP, "|": PIPE, "-": MINUS, "\\": MINUS, "(": LPAREN, ")": RPAREN, "^c": CARET_C,
    "<=>": IFF, "<=": LE, "=>": IMPLIES, "=": EQ,
    "EMPTY": EMPTY_KW, "UNIVERSAL": UNIV_KW,
}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for line, source in enumerate(text.split("\n"), start=1):
        m = _LEXEME_RE.match(source)
        while word := m[1]:
            tokens.append(Token(_KINDS.get(word, NAME), word, line, m.start(1) + 1))
            m = _LEXEME_RE.match(source, m.end())
        if m.end() < len(source):
            ch = source[m.end()]
            message = "expected 'c' after '^'" if ch == "^" else f"illegal character {ch!r}"
            raise LexError(message, line, m.end() + 1)
    return tokens


def is_name(text: str) -> bool:
    """Whether ``text`` lexes as exactly one NAME token."""
    return _NAME_RE.fullmatch(text) is not None and text not in _KINDS


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        # One END token just past the last lexeme closes the input, so
        # peek() always has a token to return.
        last = self.tokens[-1] if self.tokens else Token(END, "", 1, 1)
        self.tokens.append(Token(END, "", last.line, last.column + len(last.text)))
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expression(self) -> Expr:
        node = self.term()
        while self.peek().kind == PIPE:
            self.advance()
            node = Union(node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in (AMP, MINUS):
            op = self.advance()
            right = self.factor()
            node = Intersect(node, right) if op.kind == AMP else Difference(node, right)
        return node

    def factor(self) -> Expr:
        node = self.atom()
        while self.peek().kind == CARET_C:
            self.advance()
            node = Complement(node)
        return node

    def atom(self) -> Expr:
        tok = self.peek()
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
            if self.peek().kind != RPAREN:
                raise ParseError("unbalanced parenthesis", tok.line, tok.column)
            self.advance()
            return node
        if tok.kind == END:
            raise ParseError("unexpected end of input", tok.line, tok.column)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def formula(self) -> Formula:
        node = self.conjunction()
        tok = self.peek()
        if tok.kind in (IMPLIES, IFF):
            self.advance()
            node = Formula(tok.text, node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.relation()
        while (tok := self.peek()).kind == NAME and tok.text == "and":
            self.advance()
            node = Formula("and", node, self.relation())
        return node

    def relation(self) -> Formula:
        left = self.expression()
        tok = self.peek()
        if tok.kind not in (EQ, LE):
            raise ParseError("expected '=' or '<='", tok.line, tok.column)
        self.advance()
        return Formula(tok.text, left, self.expression())

    def finish(self) -> None:
        trailing = self.peek()
        if trailing.kind != END:
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
        elif isinstance(node, _Binary):
            if ready:
                right = values.pop()
                values.append(combine(node, values.pop(), right))
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        else:
            values.append(combine(node))
    return values.pop()


def evaluate(ast: Expr, env: Mapping[str, SoftSet], ctx: Context) -> SoftSet:
    """Evaluate bottom-up, calling each operation node's ``function`` of
    ``softsets.algebra``, looked up at each call."""

    def combine(node: Expr, *values: SoftSet) -> SoftSet:
        function = getattr(node, "function", None)
        if function:
            return getattr(algebra, function)(*values)
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
        raise TypeError(f"not an expression node: {node!r}")

    return fold(ast, combine)


# Precedence levels above the binary operators' own ``level``: ``^c``
# binds tighter, and atoms tightest.
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
        if hasattr(node, "symbol"):
            level = node.level
            return f"{wrap(parts[0], level)} {node.symbol} {wrap(parts[1], level + 1)}", level
        raise TypeError(f"not an expression node: {node!r}")

    return fold(ast, combine)[0]
