"""Workspace text format: loader, renderer, round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsets.errors import ContextMismatch, FormatError
from softsets.houses import bundled_workspace_text, houses_workspace
from softsets.laws import enumerate_soft_sets
from softsets.model import SoftSet, new_context
from softsets.workspace import (
    Workspace,
    load_workspace,
    render_soft_set,
    render_workspace,
)

from .conftest import make

HEADER = "universe: h1 h2 h3 h4 h5\nparameters: e1 e2 e3 e4 e5 e6 e7 e8\n"


class TestLoad:
    def test_bundled_file_matches_the_recorded_assignment(self):
        ws = load_workspace(bundled_workspace_text())
        assert ws == houses_workspace()
        assert list(ws.bindings) == ["F", "G"]

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

    def test_block_with_no_image_lines_is_the_empty_soft_set(self):
        ws = load_workspace(HEADER + "softset F:\n")
        assert ws.bindings["F"].is_empty()

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
