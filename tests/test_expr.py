"""Expression language: lexer, parser, evaluator, renderer."""

import copy
import functools
import itertools
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsets import algebra
from softsets.errors import ContextMismatch, LexError, ParseError, UnboundName
from softsets.expr import (
    AMP,
    CARET_C,
    EMPTY_KW,
    END,
    EQ,
    IFF,
    IMPLIES,
    LE,
    LPAREN,
    MINUS,
    NAME,
    PIPE,
    RPAREN,
    UNIV_KW,
    Complement,
    Difference,
    Empty,
    Formula,
    Intersect,
    Name,
    Token,
    Union,
    Universal,
    _KINDS,
    evaluate,
    is_name,
    parse,
    parse_formula,
    parse_text,
    render,
    tokenize,
)
from softsets.houses import houses_workspace
from softsets.laws import law_catalog, random_soft_set
from softsets.model import empty_soft_set, new_context, universal_soft_set

from .conftest import child_env, make
from .mutants import BROKEN_LAWS


def kinds(text):
    return [t.kind for t in tokenize(text)]


def _unblanked(text):
    return re.sub(r"[ \t\r\n]", "", text)


def _fails_fast_on_recursion(test):
    """Make ``test`` fail at once where it raises RecursionError: pytest
    takes minutes to print the traceback of a RecursionError whose
    frames hold deep trees."""

    @functools.wraps(test)
    def checked(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except RecursionError:
            pytest.fail(f"{test.__name__} raised RecursionError", pytrace=False)

    return checked


# Texts drawn from lexemes, near-lexemes (a lone `^` or `<`), blanks and
# illegal characters, so both outcomes of the lexer come up often.
_PIECES = (
    ["F", "G1", "_x", "and", "EMPTY", "UNIVERSAL", "EMPTYX", "c"]
    + ["&", "|", "-", "\\", "(", ")", "^c", "=", "<=", "=>", "<=>", "^", "<"]
    + [" ", "\t", "\r", "\n", "?", "é", "9"]
)
_texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)


# Every lexeme other than a name, with its kind, as the README lists them.
LEXEMES = {
    "&": AMP, "|": PIPE, "-": MINUS, "\\": MINUS, "(": LPAREN, ")": RPAREN, "^c": CARET_C,
    "<=>": IFF, "<=": LE, "=>": IMPLIES, "=": EQ, "EMPTY": EMPTY_KW, "UNIVERSAL": UNIV_KW,
}

_SYMBOL_RE = "|".join(
    re.escape(lexeme)
    for lexeme in sorted(LEXEMES, key=len, reverse=True)
    if not lexeme[0].isalpha()
)
_MATCH_RE = re.compile(rf"[ \t\r]*({_SYMBOL_RE}|[A-Za-z_][A-Za-z0-9_]*)?")


def _match_loop_tokenize(text):
    """Reference for ``tokenize``: one ``match`` per lexeme, each token's
    column read off its match."""
    tokens = []
    for line, source in enumerate(text.split("\n"), start=1):
        m = _MATCH_RE.match(source)
        while word := m[1]:
            tokens.append(Token(LEXEMES.get(word, NAME), word, line, m.start(1) + 1))
            m = _MATCH_RE.match(source, m.end())
        if m.end() < len(source):
            ch = source[m.end()]
            message = "expected 'c' after '^'" if ch == "^" else f"illegal character {ch!r}"
            raise LexError(message, line, m.end() + 1)
    return tokens


def _lexed(lexer, text):
    """The tokens ``lexer`` makes of ``text``, or its error's message,
    line and column."""
    try:
        return lexer(text)
    except LexError as exc:
        return exc.message, exc.line, exc.column


class TestTokenize:
    def test_the_lexer_table_lists_every_lexeme(self):
        assert _KINDS == LEXEMES

    @pytest.mark.parametrize("lexeme, kind", LEXEMES.items(), ids=list(LEXEMES))
    def test_every_lexeme_lexes_alone_as_its_kind(self, lexeme, kind):
        assert tokenize(lexeme) == [Token(kind, lexeme, 1, 1)]

    def test_complemented_group(self):
        assert kinds("(F & G)^c") == [LPAREN, NAME, AMP, NAME, RPAREN, CARET_C]

    def test_constants_and_union(self):
        assert kinds("EMPTY | F") == [EMPTY_KW, PIPE, NAME]
        assert kinds("UNIVERSAL") == [UNIV_KW]

    def test_both_difference_spellings(self):
        assert kinds("F - G") == [NAME, MINUS, NAME]
        assert kinds("F \\ G") == [NAME, MINUS, NAME]

    def test_texts_and_positions(self):
        tokens = tokenize("F  & Gh2")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("F", 1, 1),
            ("&", 1, 4),
            ("Gh2", 1, 6),
        ]

    def test_positions_across_lines(self):
        tokens = tokenize("F |\n  G")
        assert (tokens[2].line, tokens[2].column) == (2, 3)

    def test_blanks_only_separate_tokens(self):
        tokens = tokenize(" F\t&\r\n\r G\r")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("F", 1, 2),
            ("&", 1, 4),
            ("G", 2, 3),
        ]

    def test_keyword_must_stand_alone(self):
        # EMPTYX is a name, not the keyword plus a letter
        tokens = tokenize("EMPTYX")
        assert tokens[0].kind == NAME
        assert tokens[0].text == "EMPTYX"

    def test_illegal_character(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("F ? G")
        assert (exc_info.value.line, exc_info.value.column) == (1, 3)

    def test_caret_needs_c(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("F^d")
        assert exc_info.value.column == 2
        with pytest.raises(LexError):
            tokenize("F^")

    def test_error_position_on_later_line(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("F\n ?")
        assert (exc_info.value.line, exc_info.value.column) == (2, 2)

    @settings(max_examples=400, deadline=None)
    @given(text=_texts)
    def test_tokens_cover_the_text_or_the_error_is_at_the_first_gap(self, text):
        lines = text.split("\n")
        try:
            tokens = tokenize(text)
        except LexError as exc:
            offset = sum(len(line) + 1 for line in lines[: exc.line - 1]) + exc.column - 1
            # The text before the error lexes and is covered by its tokens...
            assert "".join(t.text for t in tokenize(text[:offset])) == _unblanked(text[:offset])
            # ...and no lexeme starts at the character the error names.
            rest = text[offset:]
            with pytest.raises(LexError) as rest_info:
                tokenize(rest)
            assert (rest_info.value.line, rest_info.value.column) == (1, 1)
            expected = "expected 'c' after '^'" if rest[0] == "^" else f"illegal character {rest[0]!r}"
            assert exc.message == expected
            return
        for t in tokens:
            start = t.column - 1
            assert lines[t.line - 1][start : start + len(t.text)] == t.text
        assert "".join(t.text for t in tokens) == _unblanked(text)
        assert [(t.line, t.column) for t in tokens] == sorted((t.line, t.column) for t in tokens)

    def test_tokenize_matches_a_match_per_lexeme_loop(self):
        # The blanks \x0b and \x0c that str.split() knows are illegal
        # characters to the lexer.
        pieces = _PIECES + ["\x0b", "\x0c"]
        rng = random.Random(28)
        for _ in range(40_000):
            text = "".join(rng.choices(pieces, k=rng.randrange(13)))
            assert _lexed(tokenize, text) == _lexed(_match_loop_tokenize, text), repr(text)

    @settings(max_examples=400, deadline=None)
    @given(text=_texts)
    def test_is_name_is_one_name_token(self, text):
        try:
            tokens = tokenize(text)
        except LexError:
            tokens = []
        one_name = len(tokens) == 1 and tokens[0].kind == NAME and tokens[0].text == text
        assert is_name(text) == one_name

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("F", True), ("and", True), ("_", True), ("EMPTYX", True), ("x_9", True),
            ("EMPTY", False), ("UNIVERSAL", False), ("", False), ("F\n", False),
            (" F", False), ("9a", False), ("é", False), ("F^c", False), ("F G", False),
        ],
    )
    def test_is_name(self, text, expected):
        assert is_name(text) is expected


BINARY_NODES = (Intersect, Union, Difference)


class TestParse:
    def test_levels_follow_the_documented_precedence(self):
        # `|` binds loosest, `&` and `-` share a level, `^c` binds
        # tighter, and atoms tightest
        assert Union.level < Intersect.level == Difference.level < Complement.level
        assert Complement.level < Name.level == Empty.level == Universal.level

    @pytest.mark.parametrize(
        "a, b",
        itertools.product(BINARY_NODES, repeat=2),
        ids=lambda cls: cls.__name__,
    )
    def test_binary_operators_group_by_level(self, a, b):
        # the tighter operator first, and the left one on a tie
        text = f"F {a.symbol} G {b.symbol} H"
        f, g, h = Name("F"), Name("G"), Name("H")
        tree = parse_text(text)
        assert tree == (a(f, b(g, h)) if b.level > a.level else b(a(f, g), h))
        assert render(tree) == text

    def test_union_binds_loosest(self):
        assert parse_text("F | G & H") == Union(
            Name("F"), Intersect(Name("G"), Name("H"))
        )
        assert parse_text("F & G | H") == Union(
            Intersect(Name("F"), Name("G")), Name("H")
        )

    def test_difference_is_left_associative(self):
        assert parse_text("F - G - H") == Difference(
            Difference(Name("F"), Name("G")), Name("H")
        )

    def test_intersection_and_difference_share_a_level(self):
        assert parse_text("F - G & H") == Intersect(
            Difference(Name("F"), Name("G")), Name("H")
        )
        assert parse_text("F & G - H") == Difference(
            Intersect(Name("F"), Name("G")), Name("H")
        )

    def test_complement_binds_tightest(self):
        assert parse_text("F^c | G") == Union(Complement(Name("F")), Name("G"))
        assert parse_text("F & G^c") == Intersect(Name("F"), Complement(Name("G")))
        assert parse_text("F^c^c") == Complement(Complement(Name("F")))

    def test_parentheses_group(self):
        assert parse_text("(F | G) & H") == Intersect(
            Union(Name("F"), Name("G")), Name("H")
        )
        assert parse_text("(F & G)^c") == Complement(Intersect(Name("F"), Name("G")))

    def test_constants(self):
        assert parse_text("EMPTY^c") == Complement(Empty())
        assert parse_text("UNIVERSAL - F") == Difference(Universal(), Name("F"))

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError) as exc_info:
            parse_text("(F | G")
        assert "parenthesis" in str(exc_info.value)
        assert (exc_info.value.line, exc_info.value.column) == (1, 1)

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc_info:
            parse_text("F G")
        assert (exc_info.value.line, exc_info.value.column) == (1, 3)

    @pytest.mark.parametrize(
        "text", [pytest.param("", id="empty"), pytest.param("   ", id="blanks")]
    )
    def test_empty_input(self, text):
        with pytest.raises(ParseError) as exc_info:
            parse_text(text)
        assert str(exc_info.value) == "1:1: unexpected end of input"

    @pytest.mark.parametrize(
        "text, line, column",
        [
            pytest.param("F &", 1, 4, id="one-line"),
            pytest.param("F |\n  G &", 2, 6, id="two-lines"),
        ],
    )
    def test_dangling_operator(self, text, line, column):
        # The error sits just past the last token.
        with pytest.raises(ParseError) as exc_info:
            parse_text(text)
        assert str(exc_info.value) == f"{line}:{column}: unexpected end of input"
        assert (exc_info.value.line, exc_info.value.column) == (line, column)

    def test_unexpected_token(self):
        with pytest.raises(ParseError) as exc_info:
            parse_text(") F")
        assert (exc_info.value.line, exc_info.value.column) == (1, 1)

    def test_parse_accepts_a_token_sequence(self):
        assert parse(tokenize("F | G")) == Union(Name("F"), Name("G"))
        assert parse(t for t in tokenize("F | G")) == Union(Name("F"), Name("G"))

    @_fails_fast_on_recursion
    def test_deep_nesting_parses(self):
        assert parse_text("(" * 3000 + "F" + ")" * 3000) == Name("F")
        assert parse_text("(" * 3000 + "F" + ")^c" * 3000) == parse_text("F" + "^c" * 3000)


class _PeekAdvanceParser:
    """Reference for the parser: a copy of its earlier ``expression``
    loop, which reads one token at a time through ``peek`` and
    ``advance``, with ``atom``, the formula rules and ``finish``."""

    NODES = {AMP: Intersect, MINUS: Difference, PIPE: Union, EMPTY_KW: Empty, UNIV_KW: Universal}

    def __init__(self, tokens):
        self.tokens = list(tokens)
        last = self.tokens[-1] if self.tokens else Token(END, "", 1, 1)
        self.tokens.append(Token(END, "", last.line, last.column + len(last.text)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expression(self):
        stack = []
        node = None
        while True:
            if node is None:
                while self.peek().kind == LPAREN:
                    stack.append(self.advance())
                node = self.atom()
            while self.peek().kind == CARET_C:
                self.advance()
                node = Complement(node)
            cls = self.NODES.get(self.peek().kind)
            level = cls.level if cls and cls in BINARY_NODES else 0
            while stack and isinstance(stack[-1], tuple) and stack[-1][0].level >= level:
                op, left = stack.pop()
                node = op(left, node)
            if level:
                self.advance()
                stack.append((cls, node))
                node = None
            elif not stack:
                return node
            else:
                opening = stack.pop()
                if self.peek().kind != RPAREN:
                    raise ParseError("unbalanced parenthesis", opening.line, opening.column)
                self.advance()

    def atom(self):
        tok = self.peek()
        if tok.kind == NAME:
            self.advance()
            return Name(tok.text)
        if tok.kind in (EMPTY_KW, UNIV_KW):
            self.advance()
            return self.NODES[tok.kind]()
        if tok.kind == END:
            raise ParseError("unexpected end of input", tok.line, tok.column)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def formula(self):
        node = self.conjunction()
        tok = self.peek()
        if tok.kind in (IMPLIES, IFF):
            self.advance()
            node = Formula(tok.text, node, self.conjunction())
        return node

    def conjunction(self):
        node = self.relation()
        while (tok := self.peek()).kind == NAME and tok.text == "and":
            self.advance()
            node = Formula("and", node, self.relation())
        return node

    def relation(self):
        left = self.expression()
        tok = self.peek()
        if tok.kind not in (EQ, LE):
            raise ParseError("expected '=' or '<='", tok.line, tok.column)
        self.advance()
        return Formula(tok.text, left, self.expression())

    def finish(self, node):
        trailing = self.peek()
        if trailing.kind != END:
            raise ParseError(
                f"trailing input starting at {trailing.text!r}", trailing.line, trailing.column
            )
        return node


def _reference_parse(tokens):
    parser = _PeekAdvanceParser(tokens)
    return parser.finish(parser.expression())


def _reference_parse_formula(text):
    parser = _PeekAdvanceParser(tokenize(text))
    return parser.finish(parser.formula())


def _parsed(parser, argument):
    """The ``_key()`` of the tree ``parser`` makes of ``argument``, or its
    ParseError's message, line and column."""
    try:
        return parser(argument)._key()
    except ParseError as exc:
        return exc.message, exc.line, exc.column


# Expression texts from a grammar, each rendered with blanks, newlines
# and redundant parentheses, and one edit away from them: a token
# dropped, doubled or replaced by another lexeme.
_OPERANDS = ("F", "G1", "and", "EMPTY", "UNIVERSAL")
_LEXEMES = _OPERANDS + ("&", "|", "-", "\\", "(", ")", "^c", "=", "<=", "=>", "<=>")


def _expression_pieces(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        pieces = [rng.choice(_OPERANDS)]
    elif roll < 0.45:
        pieces = ["(", *_expression_pieces(rng, depth - 1), ")"]
    elif roll < 0.6:
        pieces = [*_expression_pieces(rng, depth - 1), "^c"]
    else:
        operator = rng.choice(["&", "|", "-", "\\"])
        pieces = [*_expression_pieces(rng, depth - 1), operator, *_expression_pieces(rng, depth - 1)]
    return pieces


def _expression_texts(rng, count):
    for _ in range(count):
        pieces = _expression_pieces(rng, rng.randrange(6))
        edit = rng.randrange(4)
        at = rng.randrange(len(pieces))
        if edit == 1:
            del pieces[at]
        elif edit == 2:
            pieces.insert(at, pieces[at])
        elif edit == 3:
            pieces[at] = rng.choice(_LEXEMES)
        yield "".join(piece + rng.choice(["", " ", "\n"]) for piece in pieces)


MALFORMED_EXPRESSIONS = (
    "(", ")", "(F", "F)", "((F)", "(F))", "()", "F (", "F & (", ") F",
    "F &", "F |", "F -", "F \\", "F & | G", "& F", "F |\n",
    "^c", "^c F", "(^c)", "F & ^c", "F ^c ^c (",
    "F = G", "=", "F =", "= F", "(F = G)", "F <= G", "F => G",
    "F G", "EMPTY UNIVERSAL", "F and", "",
)


class TestParseMatchesAPeekAdvanceLoop:
    """The parser's loop over token kinds gives the tree, or the error
    message and position, of a copy of its earlier peek/advance loop."""

    def test_seeded_texts(self):
        rng = random.Random(29)
        texts = ["".join(rng.choices(_PIECES, k=rng.randrange(13))) for _ in range(40_000)]
        texts += _expression_texts(rng, 20_000)
        parsed = 0
        for text in [*texts, *MALFORMED_EXPRESSIONS]:
            try:
                tokens = tokenize(text)
            except LexError:
                continue
            expected = _parsed(_reference_parse, tokens)
            assert _parsed(parse, tokens) == expected, repr(text)
            assert _parsed(parse_formula, text) == _parsed(_reference_parse_formula, text), repr(text)
            parsed += not isinstance(expected[0], str)
        assert parsed > 10_000  # the grammar's texts parse, not only fail

    @pytest.mark.parametrize("text", MALFORMED_EXPRESSIONS)
    def test_malformed_expressions_fail_alike(self, text):
        expected = _parsed(_reference_parse, tokenize(text))
        assert isinstance(expected[0], str)
        assert _parsed(parse_text, text) == expected

    def test_law_texts(self):
        texts = [law.statement for law in (*law_catalog(), *BROKEN_LAWS)]
        assert len(law_catalog()) == 23
        for text in texts:
            assert _parsed(parse_formula, text) == _parsed(_reference_parse_formula, text), text


# Trees that hold a formula, and the start of the TypeError's message:
# the repr of the first formula in post-order.
NOT_EXPRESSIONS = [
    (parse_formula("F = F"), "Formula(op='=', left=Name(identifier='F'), right=Name(identifier='F'))"),
    (Intersect(Name("F"), parse_formula("EMPTY <= G^c")), "Formula(op='<=', left=Empty(), "),
    (parse_formula("F = F and G = G"), "Formula(op='=', left=Name(identifier='F'), "),
]


class TestEvaluate:
    @pytest.fixture
    def houses(self):
        ws = houses_workspace()
        return ws.context, ws.bindings

    def test_operators_delegate_to_the_algebra(self, houses):
        ctx, env = houses
        f, g = env["F"], env["G"]
        assert evaluate(parse_text("F & G"), env, ctx) == algebra.intersection(f, g)
        assert evaluate(parse_text("F | G"), env, ctx) == algebra.union(f, g)
        assert evaluate(parse_text("F - G"), env, ctx) == algebra.difference(f, g)
        assert evaluate(parse_text("F^c"), env, ctx) == algebra.complement(f)

    def test_intersection_on_the_worked_example(self, houses):
        ctx, env = houses
        result = evaluate(parse_text("F & G"), env, ctx)
        assert result.image("e3") == {"h2", "h4"}
        assert result.domain() == {"e3", "e4", "e5", "e7"}

    def test_universal_minus_is_complement(self, houses):
        ctx, env = houses
        assert evaluate(parse_text("UNIVERSAL - F"), env, ctx) == algebra.complement(
            env["F"]
        )

    def test_constants(self, houses):
        ctx, env = houses
        assert evaluate(parse_text("EMPTY"), env, ctx) == empty_soft_set(ctx)
        assert evaluate(parse_text("UNIVERSAL"), env, ctx) == universal_soft_set(ctx)

    @pytest.mark.parametrize("tree, named", NOT_EXPRESSIONS, ids=["formula", "nested", "conjunction"])
    def test_a_formula_is_not_an_expression(self, houses, tree, named):
        ctx, env = houses
        with pytest.raises(TypeError, match=f"^not an expression node: {re.escape(named)}"):
            evaluate(tree, env, ctx)

    def test_unbound_name(self, houses):
        ctx, env = houses
        with pytest.raises(UnboundName) as exc_info:
            evaluate(parse_text("F & X"), env, ctx)
        assert exc_info.value.name == "X"

    def test_binding_from_another_context_is_rejected(self, houses):
        ctx, env = houses
        other = new_context(("x1",), ("e1",))
        env = dict(env, H=make(other, e1="x1"))
        for text in ["F | H", "F | H & X"]:
            with pytest.raises(ContextMismatch, match="^name H is bound in a different context$"):
                evaluate(parse_text(text), env, ctx)

    def test_left_operand_is_evaluated_first(self, houses):
        # The error names the first unbound name in post-order.
        ctx, env = houses
        for text, first in [
            ("(X | F) & Y", "X"), ("X^c & Y", "X"), ("F & (Y | X)", "Y"),
            ("(X - F)^c | Y & Z", "X"), ("EMPTY | F & X", "X"),
        ]:
            with pytest.raises(UnboundName) as exc_info:
                evaluate(parse_text(text), env, ctx)
            assert exc_info.value.name == first

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_demorgan_holds_at_the_expression_level(self, seed):
        ctx = new_context(("x1", "x2", "x3"), ("e1", "e2", "e3"))
        env = {
            "F": random_soft_set(ctx, seed),
            "G": random_soft_set(ctx, seed + 1),
        }
        left = evaluate(parse_text("(F & G)^c"), env, ctx)
        right = evaluate(parse_text("F^c | G^c"), env, ctx)
        assert algebra.equals(left, right)


# Random expression trees for the round-trip property.

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("EMPTY", "UNIVERSAL")
)
_leaves = st.one_of(
    st.builds(Name, _names), st.just(Empty()), st.just(Universal())
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Complement, kids),
        st.builds(Intersect, kids, kids),
        st.builds(Union, kids, kids),
        st.builds(Difference, kids, kids),
    ),
    max_leaves=25,
)


class TestRender:
    def test_only_needed_parentheses(self):
        assert render(parse_text("F | G & H")) == "F | G & H"
        assert render(parse_text("(F | G) & H")) == "(F | G) & H"
        assert render(parse_text("F - (G - H)")) == "F - (G - H)"
        assert render(parse_text("(F & G)^c")) == "(F & G)^c"
        assert render(parse_text("F^c^c")) == "F^c^c"

    @pytest.mark.parametrize("tree, named", NOT_EXPRESSIONS, ids=["formula", "nested", "conjunction"])
    def test_a_formula_is_not_an_expression(self, tree, named):
        with pytest.raises(TypeError, match=f"^not an expression node: {re.escape(named)}"):
            render(tree)
        assert render(parse_text("EMPTY")) == "EMPTY"

    @settings(max_examples=300, deadline=None)
    @given(tree=_trees)
    def test_round_trip_is_the_identity_on_trees(self, tree):
        assert parse_text(render(tree)) == tree

    @settings(max_examples=150, deadline=None)
    @given(tree=_trees)
    def test_render_is_stable_under_reparsing(self, tree):
        text = render(tree)
        assert render(parse_text(text)) == text

    def test_left_chains_need_no_parentheses(self):
        assert render(parse_text("(F & G) & H")) == "F & G & H"
        assert render(parse_text("F - G & H")) == "F - G & H"
        assert render(parse_text("(F & G) | H")) == "F & G | H"

    @pytest.mark.parametrize(
        "text",
        [" & ".join(["F"] * 3000), "F" + "^c" * 3000],
        ids=["3000-term-chain", "3000-complements"],
    )
    @_fails_fast_on_recursion
    def test_deep_trees_render_and_reparse(self, text):
        tree = parse_text(text)
        rendered = render(tree)
        assert render(parse_text(rendered)) == rendered
        assert rendered.count("F") == text.count("F")
        assert parse_text(rendered) == tree

    @pytest.mark.parametrize(
        "text",
        [
            "F" + " & (G | H" * 1000 + ")" * 1000,
            "F" + " - (G" * 1000 + ")" * 1000,
            "(" * 1000 + "F" + " | G)" * 1000,
            "(" * 1000 + "F" + ")^c" * 1000,
        ],
        ids=["alternating", "right-nested", "left-nested", "complemented"],
    )
    @_fails_fast_on_recursion
    def test_render_nests_no_deeper_than_its_source(self, text):
        tree = parse_text(text)
        rendered = render(tree)
        depth = max(itertools.accumulate({"(": 1, ")": -1}.get(c, 0) for c in rendered))
        assert depth <= 1000
        assert parse_text(rendered) == tree
        assert render(parse_text(rendered)) == rendered


# The fold-based walks that ``_key()``'s program replaced: a reference
# for ``evaluate``, ``render`` and the key.


def _fold(ast, combine):
    values = []
    stack = [(ast, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Complement):
            if ready:
                values.append(combine(node, values.pop()))
            else:
                stack += ((node, True), (node.child, False))
        elif isinstance(node, (Intersect, Union, Difference, Formula)):
            if ready:
                right = values.pop()
                values.append(combine(node, values.pop(), right))
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        else:
            values.append(combine(node))
    return values.pop()


def _reference_evaluate(ast, env, ctx):
    def combine(node, *values):
        function = getattr(node, "function", None)
        if function:
            return getattr(algebra, function)(*values)
        if isinstance(node, Name):
            if node.identifier not in env:
                raise UnboundName(node.identifier)
            value = env[node.identifier]
            if value.context is not ctx and value.context != ctx:
                raise ContextMismatch(f"name {node.identifier} is bound in a different context")
            return value
        if isinstance(node, Empty):
            return empty_soft_set(ctx)
        if isinstance(node, Universal):
            return universal_soft_set(ctx)
        raise TypeError(f"not an expression node: {node!r}")

    return _fold(ast, combine)


def _reference_render(ast):
    def wrap(part, level):
        text, part_level = part
        return f"({text})" if part_level < level else text

    def combine(node, *parts):
        if isinstance(node, Name):
            return node.identifier, node.level
        symbol = getattr(node, "symbol", None)
        if symbol is None:
            raise TypeError(f"not an expression node: {node!r}")
        level = node.level
        if len(parts) == 2:
            return f"{wrap(parts[0], level)} {symbol} {wrap(parts[1], level + 1)}", level
        return "".join(wrap(part, level) for part in parts) + symbol, level

    return _fold(ast, combine)[0]


def _reference_key(ast):
    key = []

    def visit(node, *_):
        key.append(type(node))
        if isinstance(node, Name):
            key.append(node.identifier)
        elif isinstance(node, Formula):
            key.append(node.op)

    _fold(ast, visit)
    return tuple(key)


def _flat(program):
    """A program in the reference key's form: each step's class, then its
    scalar if it has one."""
    return tuple(x for cls, scalar in program for x in (cls, scalar)[: 1 + (scalar is not None)])


def _outcome(function, *args):
    """What ``function`` returns, or its exception's type and message."""
    try:
        return function(*args)
    except (UnboundName, ContextMismatch, TypeError) as exc:
        return type(exc), str(exc)


class TestProgramMatchesAFold:
    """``evaluate``, ``render`` and ``_key()`` run the tree's program and
    give what a fold over the tree gave: the same soft set, text and
    steps, or the same exception and message."""

    @pytest.fixture(scope="class")
    def envs(self):
        ctx = new_context(("x1", "x2", "x3"), ("e1", "e2"))
        other = new_context(("x1",), ("e1",))
        f, g = random_soft_set(ctx, 1), random_soft_set(ctx, 2)
        # The grammar's names bound; "and" unbound; G1 over another frame.
        # Names joined with no blank between them are unbound in all.
        return ctx, [
            {"F": f, "G1": g, "and": f},
            {"F": f, "G1": g},
            {"F": f, "G1": random_soft_set(other, 3), "and": g},
        ]

    def trees(self):
        rng = random.Random(31)
        for text in _expression_texts(rng, 3000):
            try:
                yield parse_text(text)
            except (LexError, ParseError):
                pass
        yield parse_text(" & ".join(["F"] * 3000))
        yield parse_text("F" + "^c" * 3000)

    def test_evaluate_render_and_key(self, envs):
        ctx, envs = envs
        count = 0
        for tree in self.trees():
            assert _flat(tree._key()) == _reference_key(tree)
            assert render(tree) == _reference_render(tree)
            for env in envs:
                assert _outcome(evaluate, tree, env, ctx) == _outcome(_reference_evaluate, tree, env, ctx)
            count += 1
        assert count > 1000

    def test_formula_keys(self):
        texts = [law.statement for law in (*law_catalog(), *BROKEN_LAWS) if hasattr(law.check, "formula")]
        texts.append(" and ".join(["F - G = F & G^c"] * 1500) + " => F" + " | G" * 1500 + " <= F")
        for text in texts:
            formula = parse_formula(text)
            assert _flat(formula._key()) == _reference_key(formula)


# Parses, evaluates, renders and reparses, compares, hashes, prints,
# pickles and deep-copies 5,000-deep trees under a recursion limit of 60,
# which no walk that recurses once per level survives.
NO_RECURSION = """\
import copy, io, pickle, sys
from softsets.expr import evaluate, parse_formula, parse_text, render
from softsets.houses import houses_workspace
from softsets.laws import formula_law

ws = houses_workspace()
f, g = ws.bindings["F"], ws.bindings["G"]
sys.setrecursionlimit(60)
n = 5000
texts = [
    "(" * n + "F" + ")" * n,
    " & ".join(["F"] * n),
    "F" + "^c" * n,
    "F" + " & (G | F" * n + ")" * n,
    "(" * n + "F" + ")^c" * n,
]
formula = " and ".join(["F <= F | G"] * n) + " => F <= F" + " | G" * n
for text in texts + [formula]:
    parse = parse_formula if text is formula else parse_text
    tree, same, other = parse(text), parse(text), parse(text + " | G")
    if text is formula:
        assert formula_law("deep", "F G", text).check(ws.context, (f, g)) is None
    else:
        assert evaluate(tree, ws.bindings, ws.context) == f
        assert parse_text(render(tree)) == tree
    assert tree == same and hash(tree) == hash(same) and tree != other
    print(tree, file=io.StringIO())
    assert pickle.loads(pickle.dumps(tree)) == tree and copy.deepcopy(tree) == tree
    print("ok")
"""


class TestTreeIdentity:
    @pytest.fixture(scope="class")
    def chains(self):
        text = " & ".join(["F"] * 3000)
        return parse_text(text), parse_text(text), parse_text(text[:-1] + "G")

    @_fails_fast_on_recursion
    def test_deep_trees_compare_and_hash(self, chains):
        a, b, c = chains
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert {a: 1}[b] == 1
        assert parse_text("F" + "^c" * 3000) != parse_text("F" + "^c" * 2999)

    @_fails_fast_on_recursion
    def test_deep_trees_have_a_repr(self, chains):
        a, _, _ = chains
        text = repr(a)
        assert text.startswith("Intersect(left=Intersect(left=")
        assert text.count("Name(identifier='F')") == 3000

    @pytest.mark.parametrize(
        "round_trip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize(
        "text, parser",
        [
            (" & ".join(["F"] * 3000), parse_text),
            ("F" + "^c" * 3000, parse_text),
            (" and ".join(["F - G = F & G^c"] * 1500) + " => F" + " | G" * 1500 + " <= F", parse_formula),
        ],
        ids=["3000-term-chain", "3000-complements", "deep-formula"],
    )
    @_fails_fast_on_recursion
    def test_deep_trees_pickle_and_copy(self, text, parser, round_trip):
        tree = parser(text)
        clone = round_trip(tree)
        assert type(clone) is type(tree) and clone == tree
        assert repr(clone) == repr(tree)

    def test_no_operation_recurses_on_depth(self):
        # In a child process, so the low recursion limit binds nothing else.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", NO_RECURSION],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "ok\n" * 6

    def test_a_name_is_nonempty(self):
        with pytest.raises(ValueError):
            Name("")

    @pytest.mark.parametrize("identifier", ["EMPTY", "UNIVERSAL", "a b", "2F", "F^c"])
    def test_a_name_is_one_name_lexeme(self, identifier):
        # Otherwise render(Complement(Name("EMPTY"))) would read back as
        # Complement(Empty()), and Name("a b") would not parse at all.
        with pytest.raises(ValueError):
            Name(identifier)

    @pytest.mark.parametrize("text", ["EMPTY", "a b"])
    def test_a_name_token_is_one_name_lexeme(self, text):
        # Otherwise parse([Token(NAME, "EMPTY", 1, 1)]) would build
        # Name("EMPTY"), which renders as the keyword.
        with pytest.raises(ValueError):
            Token(NAME, text, 1, 1)
        assert Token(EMPTY_KW, "EMPTY", 1, 1).text == "EMPTY"

    @pytest.mark.parametrize("identifier", ["and", "F1", "_x"])
    def test_a_name_lexeme_builds_a_name(self, identifier):
        node = Complement(Name(identifier))
        assert parse_text(render(node)) == node

    def test_structure_decides_equality(self):
        f, g, h = Name("F"), Name("G"), Name("H")
        assert Intersect(f, g) != Union(f, g)
        assert Intersect(Intersect(f, g), h) != Intersect(f, Intersect(g, h))
        assert Name("F") != Name("G") and Complement(f) != f
        assert Formula("=", f, g) != Formula("<=", f, g)
        assert Formula("=", f, g) != Intersect(f, g)
        assert Empty() == Empty() and Empty() != Universal()
        assert len({Intersect(f, g), Intersect(f, g), Intersect(g, f)}) == 2
        assert (f == "F") is False

    def test_repr_is_the_dataclass_form(self):
        assert repr(parse_formula("F <= G^c => EMPTY = F - UNIVERSAL")) == (
            "Formula(op='=>', left=Formula(op='<=', left=Name(identifier='F'), "
            "right=Complement(child=Name(identifier='G'))), right=Formula(op='=', "
            "left=Empty(), right=Difference(left=Name(identifier='F'), right=Universal())))"
        )


class TestFormula:
    def test_relation_tokens(self):
        assert kinds("= <= => <=>") == [EQ, LE, IMPLIES, IFF]
        assert kinds("F<=G") == [NAME, LE, NAME]

    def test_lone_angle_bracket_is_illegal(self):
        with pytest.raises(LexError):
            tokenize("F < G")

    def test_relations(self):
        assert parse_formula("F & G = G & F") == Formula(
            "=", Intersect(Name("F"), Name("G")), Intersect(Name("G"), Name("F"))
        )
        assert parse_formula("F <= F | G") == Formula(
            "<=", Name("F"), Union(Name("F"), Name("G"))
        )

    def test_connectives_bind_looser_than_relations(self):
        f, g, h = Name("F"), Name("G"), Name("H")
        assert parse_formula("F <= G and G <= H => F <= H") == Formula(
            "=>",
            Formula("and", Formula("<=", f, g), Formula("<=", g, h)),
            Formula("<=", f, h),
        )
        assert parse_formula("F <= G <=> F & G = F") == Formula(
            "<=>", Formula("<=", f, g), Formula("=", Intersect(f, g), f)
        )

    @pytest.mark.parametrize(
        "text", ["F", "F = G = H", "F => G", "F = G => G = F => F = G", "(F = G)", "F = G and"]
    )
    def test_malformed_laws(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("F", "expected '=' or '<='", 1, 2),
            ("F = G and", "unexpected end of input", 1, 10),
            ("F = G =>", "unexpected end of input", 1, 9),
        ],
    )
    def test_end_of_input_positions(self, text, message, line, column):
        with pytest.raises(ParseError) as exc_info:
            parse_formula(text)
        assert str(exc_info.value) == f"{line}:{column}: {message}"
        assert (exc_info.value.line, exc_info.value.column) == (line, column)

    def test_and_stays_a_name_in_expressions(self):
        assert parse_text("and & F") == Intersect(Name("and"), Name("F"))
