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
arbitrarily deep.  A tree's one walk gives its program (``_key()``),
which evaluation, rendering, comparison, hashing, pickling and copying
read, and ``repr`` walks with an explicit stack too, so every tree the
parser builds evaluates, renders, compares, pickles and copies; and as
rendering emits only the parentheses the tree needs, its text nests no
deeper than the source and parses again.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence

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
        if kind == NAME and not is_name(text):
            raise ValueError(f"NAME token text {text!r} is not a NAME lexeme")
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
    copying) with ones that read the tree's program, ``_key()``, or walk
    it with an explicit stack instead of recursing: a tree pickles as its
    program."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The tree's program: one (node class, scalar) step per node in
        post-order, the scalar a name's identifier, a formula's operator or
        None.  Each class has a fixed number of children, so the program
        determines the tree.  The stack reads it backwards: node, right, left."""
        steps: list = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            scalar = None
            if isinstance(node, _Binary):
                stack += (node.left, node.right)
                if isinstance(node, Formula):
                    scalar = node.op
            elif isinstance(node, Complement):
                stack.append(node.child)
            elif isinstance(node, Name):
                scalar = node.identifier
            steps.append((type(node), scalar))
        steps.reverse()
        return tuple(steps)

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


def _rebuild(program: tuple) -> _Node:
    """The tree whose ``_key()`` is ``program``, or for a prefix of it
    the subtree of its last step.  Each step's node takes its scalar, if
    any, and its children, as many as its other fields, from the top of
    a stack of built subtrees."""
    stack: list = []
    for cls, scalar in program:
        scalars = () if scalar is None else (scalar,)
        first = len(stack) - len(cls.__match_args__) + len(scalars)
        stack[first:] = [cls(*scalars, *stack[first:])]
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


def _not_an_expression(program: tuple, step: tuple) -> TypeError:
    """The error naming the subtree of ``step``, the first non-expression step."""
    return TypeError(f"not an expression node: {_rebuild(program[: program.index(step) + 1])!r}")


def evaluate(ast: Expr, env: Mapping[str, SoftSet], ctx: Context) -> SoftSet:
    """Run the tree's program on a stack of soft sets: a name pushes its
    binding and a constant its soft set, and an operation pops its
    operands and pushes its ``function`` of ``softsets.algebra``, each
    looked up once per call."""
    program = ast._key()
    complement = algebra.complement
    binary = {cls: getattr(algebra, cls.function) for cls in _BINARY.values()}
    values: list[SoftSet] = []
    for cls, identifier in program:
        if cls is Name:
            if identifier not in env:
                raise UnboundName(identifier)
            value = env[identifier]
            if value.context is not ctx and value.context != ctx:
                raise ContextMismatch(f"name {identifier} is bound in a different context")
            values.append(value)
        elif cls is Complement:
            values.append(complement(values.pop()))
        elif cls in binary:
            right = values.pop()
            values.append(binary[cls](values.pop(), right))
        elif cls is Empty:
            values.append(empty_soft_set(ctx))
        elif cls is Universal:
            values.append(universal_soft_set(ctx))
        else:
            raise _not_an_expression(program, (cls, identifier))
    return values.pop()


def render(ast: Expr) -> str:
    """Text that reparses to an identical tree, with only the parentheses
    that precedence and left associativity need: an operand is
    parenthesized when it binds looser than its operator, and a right
    operand also when it binds just as tightly.  ``(F & G) & H`` renders
    as ``F & G & H``, ``F | (G & H)`` as ``F | G & H``.  Every pair of
    parentheses in the text stands for one that any source text of the
    tree needs, so the rendering nests no deeper than its source.  The
    tree's program runs on a stack of (text, level) parts."""
    program = ast._key()
    parts: list[tuple[str, int]] = []
    for cls, identifier in program:
        if cls is Name:
            parts.append((identifier, cls.level))
            continue
        symbol = getattr(cls, "symbol", None)
        if symbol is None:
            raise _not_an_expression(program, (cls, identifier))
        level = cls.level
        if issubclass(cls, _Binary):
            (left, left_level), (right, right_level) = parts[-2:]
            del parts[-2:]
            left = f"({left})" if left_level < level else left
            right = f"({right})" if right_level <= level else right
            text = f"{left} {symbol} {right}"
        elif cls is Complement:
            text, child_level = parts.pop()
            text = (f"({text})" if child_level < level else text) + symbol
        else:  # a keyword is its symbol alone
            text = symbol
        parts.append((text, level))
    return parts.pop()[0]
