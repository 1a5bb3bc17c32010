"""Expression language for soft-set algebra over named soft sets.

Grammar (loosest binding first):

    expression := term { "|" term }
    term       := operand { ("&" | "-" | "\\") operand }
    operand    := atom { "^c" }
    atom       := NAME | "EMPTY" | "UNIVERSAL" | "(" expression ")"

`&` and `-` share a precedence level and all binary operators associate
to the left; `^c` is postfix.  The lexer reads every lexeme and its kind
from one table, ``_KINDS``: spaces, tabs, carriage returns and newlines
only separate lexemes, and a word [A-Za-z_][A-Za-z0-9_]* that the table
does not list (EMPTY and UNIVERSAL are reserved) is a NAME, as
``is_name`` tells.  The parser and ``render`` read each operator's
``symbol`` and precedence ``level`` off its node class.

Laws (``parse_formula``) extend the language with relations and
connectives:

    formula     := conjunction [ ("=>" | "<=>") conjunction ]
    conjunction := relation { "and" relation }
    relation    := expression ("=" | "<=") expression

`=` is equality and `<=` the subset relation; `and` is a connective only
between relations, so it stays an ordinary name in expressions.

An expression parses in one loop over one explicit stack, so operator
chains and `^c` runs may be of any length and parentheses may nest
arbitrarily deep.  Evaluation, rendering, comparison, hashing,
``repr``, pickling and copying walk the tree with explicit stacks too,
mostly through ``fold``, so every tree the parser builds evaluates,
renders, compares, pickles and copies; and as rendering emits only the
parentheses the tree needs, its text nests no deeper than the source
and parses again.
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
    constructor order.  Trees may be far deeper than the recursion limit
    (a 3,000-term chain parses into a tree 3,000 deep), so nodes override
    ``_Frozen``'s ``==``, ``hash``, ``repr`` and pickling (and so
    copying) with ones that walk the tree with explicit stacks instead
    of recursing: a tree pickles as its flat ``_key()``."""

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

    def __reduce__(self):
        return _rebuild, (self._key(),)

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
    level = 4  # an atom, as the keywords are

    identifier: str

    def __init__(self, identifier: str):
        if not is_name(identifier):
            raise ValueError(f"Name identifier {identifier!r} is not a NAME lexeme")
        _set_identifier(self, identifier)


# Class attributes, not fields (``__match_args__`` lists none): each
# operator's ``symbol`` and precedence ``level``, from ``|`` (1) up to the
# atoms (4), and an operation's function in ``softsets.algebra``.
class Empty(Expr):
    __slots__ = ()
    symbol, level = "EMPTY", 4


class Universal(Expr):
    __slots__ = ()
    symbol, level = "UNIVERSAL", 4


class Complement(Expr):
    __slots__ = ("child",)
    __match_args__ = ("child",)
    function, symbol, level = "complement", "^c", 3

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


def _rebuild(key: tuple) -> _Node:
    """The tree whose ``_key()`` is ``key``.  Each node takes its scalar
    field (a name's identifier, a formula's operator) from the key and
    its children, as many as its other fields, from the top of a stack
    of built subtrees."""
    stack: list = []
    items = iter(key)
    for cls in items:
        scalar = (next(items),) if cls in (Name, Formula) else ()
        first = len(stack) - len(cls.__match_args__) + len(scalar)
        children = stack[first:]
        del stack[first:]
        stack.append(cls(*scalar, *children))
    return stack.pop()


# The slots' own setters, bound once: _Frozen.__setattr__ refuses every
# write.  The lexer and the parser build tokens and names bare, without
# ``__init__``, through ``_new`` and these setters.
_new = object.__new__
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

# Kind of every lexeme that is not a NAME: the lexer's one list of them.
_KINDS = {
    "&": AMP, "|": PIPE, "-": MINUS, "\\": MINUS, "(": LPAREN, ")": RPAREN, "^c": CARET_C,
    "<=>": IFF, "<=": LE, "=>": IMPLIES, "=": EQ,
    "EMPTY": EMPTY_KW, "UNIVERSAL": UNIV_KW,
}

# Blanks, then at most one lexeme: a symbol of ``_KINDS``, longest first,
# or a word.  It always matches; its lexeme is empty where none starts.
_SYMBOLS = sorted((s for s in _KINDS if not _NAME_RE.fullmatch(s)), key=len, reverse=True)
_LEXEME_RE = re.compile(rf"([ \t\r]*)({'|'.join(map(re.escape, _SYMBOLS))}|{_NAME})?")


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``: one ``findall`` per line, each column the
    running sum of the (blanks, lexeme) lengths before it.  The first
    pair with no lexeme ends the line; a character left after it is a
    LexError."""
    tokens: list[Token] = []
    for line, source in enumerate(text.split("\n"), start=1):
        column = 1
        for blanks, word in _LEXEME_RE.findall(source):
            column += len(blanks)
            if not word:
                break
            token = _new(Token)
            _set_kind(token, _KINDS.get(word, NAME))
            _set_text(token, word)
            _set_line(token, line)
            _set_column(token, column)
            tokens.append(token)
            column += len(word)
        if column <= len(source):
            ch = source[column - 1]
            message = "expected 'c' after '^'" if ch == "^" else f"illegal character {ch!r}"
            raise LexError(message, line, column)
    return tokens


def is_name(text: str) -> bool:
    """Whether ``text`` lexes as exactly one NAME token."""
    return _NAME_RE.fullmatch(text) is not None and text not in _KINDS


# ---------------------------------------------------------------------------
# Parser

# The node class each binary operator token builds, and each keyword.
_BINARY = {AMP: Intersect, MINUS: Difference, PIPE: Union}
_KEYWORDS = {EMPTY_KW: Empty, UNIV_KW: Universal}


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        # One END token just past the last lexeme closes the input, so
        # self.tokens[self.pos] is always a token.
        last = self.tokens[-1] if self.tokens else Token(END, "", 1, 1)
        self.tokens.append(Token(END, "", last.line, last.column + len(last.text)))
        self.kinds = [token.kind for token in self.tokens]
        self.pos = 0

    def expression(self) -> Expr:
        """One expression, read in one loop over the token kinds and one
        stack of open parenthesis tokens and pending (operator class,
        left operand) pairs.  After each operand and its ``^c`` run, every
        pending operator that binds at least as tightly as the next
        binary operator is built; at any other token, every one back to
        the innermost open parenthesis, which that token must close.  So
        chains associate to the left."""
        tokens, kinds, pos = self.tokens, self.kinds, self.pos
        stack: list = []
        node = None  # the operand just read, with the operators built on it
        while True:
            if node is None:
                while kinds[pos] == LPAREN:
                    stack.append(tokens[pos])
                    pos += 1
                kind = kinds[pos]
                if kind == NAME:
                    node = _new(Name)
                    _set_identifier(node, tokens[pos].text)
                elif kind in _KEYWORDS:
                    node = _KEYWORDS[kind]()
                else:
                    tok = tokens[pos]
                    message = "unexpected end of input" if kind == END else f"unexpected token {tok.text!r}"
                    raise ParseError(message, tok.line, tok.column)
                pos += 1
            while kinds[pos] == CARET_C:
                pos += 1
                node = Complement(node)
            cls = _BINARY.get(kinds[pos])
            level = cls.level if cls else 0
            while stack and isinstance(stack[-1], tuple) and stack[-1][0].level >= level:
                op, left = stack.pop()
                node = op(left, node)
            if level:
                pos += 1
                stack.append((cls, node))
                node = None
            elif not stack:
                self.pos = pos
                return node
            else:
                opening = stack.pop()
                if kinds[pos] != RPAREN:
                    raise ParseError("unbalanced parenthesis", opening.line, opening.column)
                pos += 1

    def formula(self) -> Formula:
        node = self.conjunction()
        tok = self.tokens[self.pos]
        if tok.kind in (IMPLIES, IFF):
            self.pos += 1
            node = Formula(tok.text, node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.relation()
        while (tok := self.tokens[self.pos]).kind == NAME and tok.text == "and":
            self.pos += 1
            node = Formula("and", node, self.relation())
        return node

    def relation(self) -> Formula:
        left = self.expression()
        tok = self.tokens[self.pos]
        if tok.kind not in (EQ, LE):
            raise ParseError("expected '=' or '<='", tok.line, tok.column)
        self.pos += 1
        return Formula(tok.text, left, self.expression())

    def finish(self) -> None:
        trailing = self.tokens[self.pos]
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
            return node.identifier, node.level
        symbol = getattr(node, "symbol", None)
        if symbol is None:
            raise TypeError(f"not an expression node: {node!r}")
        level = node.level
        if len(parts) == 2:
            return f"{wrap(parts[0], level)} {symbol} {wrap(parts[1], level + 1)}", level
        # A keyword is its symbol alone; ``^c`` follows its operand.
        return "".join(wrap(part, level) for part in parts) + symbol, level

    return fold(ast, combine)[0]
