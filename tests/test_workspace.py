"""Workspace text format: loader, renderer, round trips."""

import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsets.errors import ContextMismatch, FormatError
from softsets.houses import bundled_workspace_text, houses_workspace
from softsets.laws import enumerate_soft_sets
from softsets.model import SoftSet, new_context, soft_set
from softsets.workspace import (
    Workspace,
    load_workspace,
    render_soft_set,
    render_workspace,
)

from .conftest import make

# The copy of the houses workspace that the README's examples run.
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "houses.sset"

HEADER = "universe: h1 h2 h3 h4 h5\nparameters: e1 e2 e3 e4 e5 e6 e7 e8\n"


class TestLoad:
    def test_bundled_file_matches_the_recorded_assignment(self):
        ws = load_workspace(bundled_workspace_text())
        assert ws == houses_workspace()
        assert list(ws.bindings) == ["F", "G"]

    def test_readme_fixture_is_the_bundled_file(self):
        bundled = resources.files("softsets") / "data" / "houses.sset"
        assert FIXTURE.read_bytes() == bundled.read_bytes()

    def test_object_order_within_an_image_is_irrelevant(self):
        a = load_workspace(HEADER + "softset F:\n  e3: h2 h4\n")
        b = load_workspace(HEADER + "softset F:\n  e3: h4 h2\n")
        assert a == b

    def test_comments_and_blank_lines_are_ignored(self):
        text = (
            "# a comment\n\nuniverse: x1 x2   # trailing comment\n"
            "parameters: e1\n\nsoftset F:\n  e1: x1  # another\n\n"
        )
        ws = load_workspace(text)
        assert ws.bindings["F"].image("e1") == {"x1"}

    def test_indentation_is_cosmetic_and_tabs_separate(self):
        text = "universe:\tx1 x2\nparameters: e1 e2\nsoftset F:\ne1:\tx2\n\te2: x1\n"
        ws = load_workspace(text)
        assert ws.bindings["F"].image("e1") == {"x2"}
        assert ws.bindings["F"].image("e2") == {"x1"}

    def test_a_leading_byte_order_mark_is_dropped(self):
        text = HEADER + "softset F:\n  e3: h2 h4\n"
        assert load_workspace("\ufeff" + text) == load_workspace(text)
        assert load_workspace("\ufeffuniverse: a\nparameters: p\n").context.objects == ("a",)
        with pytest.raises(FormatError, match="line 1: missing universe: header"):
            load_workspace("\ufeff\ufeff" + text)  # one mark only

    def test_block_with_no_image_lines_is_the_empty_soft_set(self):
        ws = load_workspace(HEADER + "softset F:\n")
        assert ws.bindings["F"].is_empty()

    def test_object_repeated_within_a_line_loads_once(self):
        ws = load_workspace(HEADER + "softset F:\n  e3: h2 h4 h2 h2\n")
        assert ws.bindings["F"].image("e3") == {"h2", "h4"}
        assert ws == load_workspace(HEADER + "softset F:\n  e3: h2 h4\n")

    def test_empty_image_line_warns_and_is_dropped(self):
        with pytest.warns(UserWarning, match="empty image"):
            ws = load_workspace(HEADER + "softset F:\n  e2:\n  e3: h1\n")
        assert ws.bindings["F"].domain() == {"e3"}


class TestLoadErrors:
    def error(self, text):
        with pytest.raises(FormatError) as exc_info:
            load_workspace(text)
        return exc_info.value

    def test_unknown_parameter(self):
        err = self.error(HEADER + "softset F:\n  e9: h1\n")
        assert "e9" in str(err)
        assert err.line == 4

    def test_unknown_object(self):
        err = self.error(HEADER + "softset F:\n  e1: h9\n")
        assert "h9" in str(err)

    def test_first_unknown_object_in_line_order_is_named(self):
        err = self.error(HEADER + "softset F:\n  e1: h1 h9 h2 h8\n")
        assert str(err) == "line 4: unknown object 'h9'"
        assert err.line == 4

    def test_unknown_parameter_is_reported_before_unknown_objects(self):
        err = self.error(HEADER + "softset F:\n  e1: h1\n  e9: h9\n")
        assert str(err) == "line 5: unknown parameter 'e9'"

    def test_repeated_parameter_is_reported_before_unknown_objects(self):
        err = self.error(HEADER + "softset F:\n  e1: h1\n  e1: h9\n")
        assert str(err) == "line 5: parameter 'e1' listed twice in one soft set"

    def test_missing_universe_header(self):
        assert "universe" in str(self.error("parameters: e1\n"))
        assert "universe" in str(self.error(""))
        assert "universe" in str(self.error("softset F:\n"))

    def test_missing_parameters_header(self):
        assert "parameters" in str(self.error("universe: x1\nsoftset F:\n"))
        assert "parameters" in str(self.error("universe: x1\n"))

    def test_duplicate_headers(self):
        err = self.error("universe: x1\nuniverse: x2\n")
        assert "duplicate" in str(err) and err.line == 2
        assert "duplicate" in str(
            self.error("universe: x1\nparameters: e1\nparameters: e2\n")
        )

    def test_header_problems_become_format_errors(self):
        assert "duplicate" in str(self.error("universe: x1 x1\nparameters: e1\n"))
        assert "universe" in str(self.error("universe:\nparameters: e1\n"))

    @pytest.mark.parametrize("name", ["universe", "parameters"])
    def test_parameter_named_like_a_header(self, name):
        # its image line would read as a header, so no line could define it
        err = self.error(f"universe: a b\nparameters: {name} e2\nsoftset F:\n  e2: a\n")
        assert "collides with a header" in str(err) and err.line == 2

    def test_parameter_named_like_a_header_exits_3(self, tmp_path, capsys):
        from softsets.cli import main

        path = tmp_path / "ws.sset"
        path.write_text("universe: a b\nparameters: universe e2\nsoftset F:\n  e2: a\n")
        assert main(["show", str(path)]) == 3
        assert main(["eval", str(path), "F^c"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "line 2" in err

    def test_image_line_outside_a_block(self):
        err = self.error(HEADER + "e1: h1\n")
        assert "outside" in str(err) and err.line == 3

    def test_duplicate_soft_set_name(self):
        err = self.error(HEADER + "softset F:\nsoftset F:\n")
        assert "duplicate" in str(err) and err.line == 4

    def test_invalid_soft_set_name(self):
        assert "invalid" in str(self.error(HEADER + "softset 2F:\n"))
        assert "invalid" in str(self.error(HEADER + "softset EMPTY:\n"))

    def test_malformed_softset_line(self):
        assert "malformed" in str(self.error(HEADER + "softset F\n"))
        assert "malformed" in str(self.error(HEADER + "softset F: extra\n"))

    def test_duplicate_parameter_line_in_one_block(self):
        err = self.error(HEADER + "softset F:\n  e1: h1\n  e1: h2\n")
        assert "twice" in str(err) and err.line == 5

    def test_empty_then_nonempty_still_counts_as_duplicate(self):
        with pytest.warns(UserWarning):
            err = self.error(HEADER + "softset F:\n  e1:\n  e1: h2\n")
        assert "twice" in str(err)

    def test_line_without_a_colon_is_malformed(self):
        assert "malformed" in str(self.error(HEADER + "softset F:\n  e1 h1\n"))


class TestWorkspaceType:
    def test_binding_name_must_be_a_name_lexeme(self, ctx22):
        s = make(ctx22, e1="x1")
        for bad in ("2F", "EMPTY", "UNIVERSAL", "F G", "F^c", ""):
            with pytest.raises(ValueError):
                Workspace(ctx22, {bad: s})

    def test_bindings_must_share_the_context(self, ctx22):
        other = new_context(("x1",), ("e1",))
        with pytest.raises(ContextMismatch):
            Workspace(ctx22, {"F": make(other, e1="x1")})


class TestRender:
    def test_canonical_form(self):
        ws = houses_workspace()
        text = render_workspace(ws)
        assert text.startswith(
            "universe: h1 h2 h3 h4 h5\nparameters: e1 e2 e3 e4 e5 e6 e7 e8\nsoftset F:\n"
        )
        assert "\n  e2: h2 h3 h5\n" in text
        assert text.endswith("\n")

    def test_headers_only_without_bindings(self, ctx22):
        assert render_workspace(Workspace(ctx22, {})) == (
            "universe: x1 x2\nparameters: e1 e2\n"
        )

    def test_parameters_and_objects_render_in_context_order(self, ctx22):
        from softsets.model import soft_set

        s = soft_set(ctx22, [("e2", ["x2", "x1"]), ("e1", ["x2"])])
        text = render_workspace(Workspace(ctx22, {"F": s}))
        assert text.endswith("softset F:\n  e1: x2\n  e2: x1 x2\n")

    def test_never_renders_an_empty_image_line(self, ctx22):
        from softsets.model import empty_soft_set

        text = render_workspace(Workspace(ctx22, {"F": empty_soft_set(ctx22)}))
        assert text.endswith("softset F:\n")

    def test_byte_identical_across_equal_workspaces(self):
        a = load_workspace(bundled_workspace_text())
        b = houses_workspace()
        assert render_workspace(a) == render_workspace(b)

    def test_unrepresentable_identifiers_are_rejected(self):
        spaced = new_context(("a b",), ("e1",))
        with pytest.raises(ValueError):
            render_workspace(Workspace(spaced, {}))
        commenty = new_context(("x1",), ("e#1",))
        with pytest.raises(ValueError):
            render_workspace(Workspace(commenty, {}))
        headerish = new_context(("x1",), ("universe",))
        with pytest.raises(ValueError):
            render_workspace(Workspace(headerish, {}))

    # "#" starts a comment; each of the others is whitespace to str.split(),
    # which the loader uses to cut a line into tokens.
    @pytest.mark.parametrize(
        "char",
        [" ", "\t", "\r", "\n", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x1f",
         "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000", "#"],
        ids=ascii,
    )
    def test_identifiers_the_loader_would_cut_are_rejected(self, char):
        assert char == "#" or f"a{char}b".split() == ["a", "b"]
        spaced_object = new_context(("x1", f"a{char}b"), ("e1",))
        with pytest.raises(ValueError, match="object name"):
            render_workspace(Workspace(spaced_object, {}))
        spaced_parameter = new_context(("x1",), (f"e{char}1", "e2"))
        with pytest.raises(ValueError, match="parameter name"):
            render_workspace(Workspace(spaced_parameter, {}))

    def test_render_soft_set_is_unindented(self, ctx22):
        s = make(ctx22, e1="x1 x2", e2="x2")
        assert render_soft_set(s) == "e1: x1 x2\ne2: x2\n"

    def test_render_soft_set_of_empty_is_empty_string(self, ctx22):
        from softsets.model import empty_soft_set

        assert render_soft_set(empty_soft_set(ctx22)) == ""


class TestRoundTrip:
    def test_every_small_soft_set_survives(self, ctx32):
        for s in enumerate_soft_sets(ctx32):
            ws = Workspace(ctx32, {"S": s})
            assert load_workspace(render_workspace(ws)) == ws

    def test_bundled_fixture_survives(self):
        ws = load_workspace(bundled_workspace_text())
        again = load_workspace(render_workspace(ws))
        assert again == ws
        assert render_workspace(again) == render_workspace(ws)


@st.composite
def _workspaces(draw):
    n_objects = draw(st.integers(min_value=0, max_value=5))
    n_params = draw(st.integers(min_value=0, max_value=5)) if n_objects else 0
    ctx = new_context(
        tuple(f"x{i}" for i in range(1, n_objects + 1)),
        tuple(f"e{i}" for i in range(1, n_params + 1)),
    )
    bindings = {}
    for b in range(draw(st.integers(min_value=0, max_value=4))):
        masks = tuple(
            draw(st.integers(min_value=0, max_value=ctx.full_mask))
            for _ in range(n_params)
        )
        bindings[f"S{b}"] = SoftSet.from_masks(ctx, masks)
    return Workspace(ctx, bindings)


@settings(max_examples=200, deadline=None)
@given(ws=_workspaces())
def test_load_render_load_fixpoint(ws):
    text = render_workspace(ws)
    loaded = load_workspace(text)
    assert loaded == ws
    assert render_workspace(loaded) == text


@pytest.mark.parametrize("n_objects", [65, 97, 128, 129, 130])
def test_wide_frame_round_trip(n_objects):
    # Masks wider than one 64-bit word, with only the first object, only
    # the last one, or every object.
    ctx = new_context(
        tuple(f"x{i}" for i in range(1, n_objects + 1)), ("e1", "e2", "e3", "e4")
    )
    first, last, every = 1, 1 << n_objects - 1, ctx.full_mask
    rows = [(first, last, every, 0), (last, every, 0, first), (every, 0, first, last)]
    ws = Workspace(
        ctx, {f"S{k}": SoftSet.from_masks(ctx, masks) for k, masks in enumerate(rows)}
    )
    text = render_workspace(ws)
    loaded = load_workspace(text)
    assert loaded == ws
    assert render_workspace(loaded) == text
    for s in ws.bindings.values():
        expected = "".join(
            f"{p}: " + " ".join(o for i, o in enumerate(ctx.objects) if m >> i & 1) + "\n"
            for p, m in zip(ctx.parameters, s.masks)
            if m
        )
        assert render_soft_set(s) == expected


def _reference_load(text):
    """The loader in two steps, for well-formed text: split every line
    into tokens, then build each block with model.soft_set from its
    (parameter, objects) pairs.  Returns the workspace, the messages of
    the warnings the loader should give, and each block's images as sets
    of object names."""
    objects = ctx = None
    blocks, messages = {}, []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "universe:":
            objects = rest
        elif head == "parameters:":
            ctx = new_context(objects, rest)
        elif head == "softset":
            pairs = blocks[rest[0][:-1]] = []
        else:
            if not rest:
                messages.append(f"line {lineno}: dropping empty image for parameter {head[:-1]!r}")
            pairs.append((head[:-1], rest))
    bindings = {name: soft_set(ctx, pairs) for name, pairs in blocks.items()}
    images = {
        name: {p: frozenset(objs) for p, objs in pairs if objs}
        for name, pairs in blocks.items()
    }
    return Workspace(ctx, bindings), messages, images


_GAPS = st.sampled_from([" ", "  ", "\t", " \t "])
_FILLER = st.lists(st.sampled_from(["", "   ", "# a comment", "\t# tabbed comment"]), max_size=2)
_TAILS = st.sampled_from(["", "  ", " # trailing", "\t#"])


@st.composite
def _workspace_texts(draw):
    """Well-formed workspace text over up to 130 objects, with comments,
    tabs, blank lines, empty image lines, and shuffled and repeated
    objects within image lines."""
    n_objects = draw(st.integers(min_value=0, max_value=130))
    n_params = draw(st.integers(min_value=0, max_value=6)) if n_objects else 0
    objects = draw(st.permutations([f"o{i}" for i in range(n_objects)]))
    parameters = [f"e{i}" for i in range(n_params)]
    lines = []

    def line(*tokens):
        lines.extend(draw(_FILLER))
        text = tokens[0] + "".join(draw(_GAPS) + t for t in tokens[1:])
        lines.append(draw(st.sampled_from(["", "  ", "\t"])) + text + draw(_TAILS))

    line("universe:", *objects)
    line("parameters:", *parameters)
    for b in range(draw(st.integers(min_value=0, max_value=3))):
        line("softset", f"S{b}:")
        defined = draw(st.permutations(parameters))
        for p in defined[: draw(st.integers(min_value=0, max_value=n_params))]:
            chosen = draw(
                st.one_of(
                    st.just([]),
                    st.lists(st.sampled_from(objects), min_size=1, max_size=12),
                    st.permutations(objects),
                )
            )
            if chosen:
                chosen = chosen + draw(st.lists(st.sampled_from(chosen), max_size=3))
            line(f"{p}:", *draw(st.permutations(chosen)))
    lines.extend(draw(_FILLER))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=150, deadline=None)
@given(text=_workspace_texts())
def test_load_matches_the_two_step_reference(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ws = load_workspace(text)
    expected, messages, images = _reference_load(text)
    assert ws == expected
    assert list(ws.bindings) == list(expected.bindings)
    assert {name: s.assignment for name, s in ws.bindings.items()} == images
    assert [str(w.message) for w in caught] == messages
    # stacklevel=2 points each warning at the loader's caller
    assert all(w.filename == __file__ for w in caught)
