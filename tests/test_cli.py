"""Command-line behavior: output, exit codes, determinism."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import softsets
from softsets import algebra, houses
from softsets.cli import main
from softsets.houses import (
    RENDERED_COMPLEMENT,
    RENDERED_INTERSECTION,
    bundled_workspace_text,
    houses_workspace,
)
from softsets.workspace import render_soft_set, render_workspace


@pytest.fixture
def houses_file(tmp_path):
    path = tmp_path / "houses.sset"
    path.write_text(bundled_workspace_text(), encoding="utf-8")
    return str(path)


class TestEval:
    def test_intersection_renders_the_worked_example(self, houses_file, capsys):
        assert main(["eval", houses_file, "F & G"]) == 0
        captured = capsys.readouterr()
        assert captured.out == RENDERED_INTERSECTION
        assert captured.err == ""

    def test_complement_covers_seven_parameters(self, houses_file, capsys):
        assert main(["eval", houses_file, "F^c"]) == 0
        assert capsys.readouterr().out == RENDERED_COMPLEMENT

    def test_empty_result_prints_nothing(self, houses_file, capsys):
        assert main(["eval", houses_file, "F - F"]) == 0
        assert capsys.readouterr().out == ""

    def test_unbound_name_exits_2(self, houses_file, capsys):
        assert main(["eval", houses_file, "F & X"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unbound name X" in captured.err

    def test_lex_error_exits_2_with_position(self, houses_file, capsys):
        assert main(["eval", houses_file, "F ? G"]) == 2
        assert "1:3" in capsys.readouterr().err

    def test_parse_error_exits_2(self, houses_file, capsys):
        assert main(["eval", houses_file, "(F | G"]) == 2
        assert "parenthesis" in capsys.readouterr().err

    @pytest.mark.parametrize("expression", ["F = G", "F <= G", "F => G", "F <=> G", "F and G"])
    def test_law_relations_are_not_expressions(self, houses_file, capsys, expression):
        assert main(["eval", houses_file, expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1:3" in captured.err

    def test_and_is_a_binding_name(self, tmp_path, capsys):
        path = tmp_path / "and.sset"
        path.write_text("universe: a b\nparameters: p q\nsoftset and:\n  p: a\nsoftset F:\n  q: b\n")
        assert main(["eval", str(path), "and | F"]) == 0
        assert capsys.readouterr().out == "p: a\nq: b\n"

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.sset"), "F"]) == 3
        assert capsys.readouterr().err != ""

    def test_malformed_workspace_exits_3_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sset"
        bad.write_text("universe: x1\nparameters: e1\nsoftset F:\n  e9: x1\n")
        assert main(["eval", str(bad), "F"]) == 3
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expression",
        [" & ".join(["F"] * 3000), "F" + "^c" * 3000],
        ids=["3000-term-chain", "3000-complements"],
    )
    def test_long_expressions_evaluate(self, houses_file, capsys, expression):
        assert main(["eval", houses_file, expression]) == 0
        captured = capsys.readouterr()
        assert captured.out == render_soft_set(houses_workspace().bindings["F"])
        assert captured.err == ""

    def test_deep_nesting_exits_2(self, houses_file, capsys):
        expression = "(" * 2000 + "F" + ")" * 2000
        assert main(["eval", houses_file, expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_output_is_deterministic(self, houses_file, capsys):
        main(["eval", houses_file, "(F | G)^c - F"])
        first = capsys.readouterr().out
        main(["eval", houses_file, "(F | G)^c - F"])
        assert capsys.readouterr().out == first


class TestShow:
    def test_canonical_re_rendering(self, houses_file, capsys):
        assert main(["show", houses_file]) == 0
        assert capsys.readouterr().out == render_workspace(houses_workspace())

    def test_show_is_a_fixpoint(self, tmp_path, capsys):
        # shown output reloads to the same canonical text
        path = tmp_path / "w.sset"
        path.write_text("universe: b a\nparameters: q p\nsoftset S:\n  p: a   b\n")
        assert main(["show", str(path)]) == 0
        once = capsys.readouterr().out
        path.write_text(once)
        assert main(["show", str(path)]) == 0
        assert capsys.readouterr().out == once

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        text = b"universe: a b\nparameters: e1\nsoftset F:\n  e1: a\n"
        plain, marked = tmp_path / "plain.sset", tmp_path / "marked.sset"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["show", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["show", str(marked)]) == 0
        assert capsys.readouterr() == expected
        assert expected.out.encode() == text and expected.err == ""


class TestCheckLaws:
    def test_defaults_pass_with_one_line_per_law(self, capsys):
        assert main(["check-laws"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 23
        assert all(line.endswith("PASS") for line in lines)
        assert all("random, 1000 cases" in line for line in lines)

    def test_exhaustive_two_by_two(self, capsys):
        assert main(["check-laws", "--exhaustive", "--universe", "2", "--params", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 23
        assert lines[0] == "identity-1: exhaustive, 16 cases, PASS"
        assert "monotonicity-cap: exhaustive, 65536 cases, PASS" in lines

    def test_exhaustive_five_by_five_exceeds_the_cap(self, capsys):
        code = main(["check-laws", "--exhaustive", "--universe", "5", "--params", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""  # refused before any report line
        assert "cap" in captured.err

    def test_huge_frame_is_refused_without_building_the_count(self, capsys):
        # 2**(3000 * 3000) has millions of digits; the cap check compares
        # bit lengths, so the refusal is immediate and its line is short
        code = main(["check-laws", "--exhaustive", "--universe", "3000", "--params", "3000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "cap" in captured.err
        assert len(captured.err) < 100

    def test_random_output_is_byte_identical_across_runs(self, capsys):
        args = [
            "check-laws", "--random", "--trials", "10000", "--seed", "42",
            "--universe", "6", "--params", "6",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.count("\n") == 23

    def test_law_filter(self, capsys):
        assert main(
            ["check-laws", "--law", "demorgan-1", "--exhaustive",
             "--universe", "3", "--params", "2"]
        ) == 0
        assert capsys.readouterr().out == "demorgan-1: exhaustive, 4096 cases, PASS\n"

    def test_law_filter_is_repeatable(self, capsys):
        assert main(["check-laws", "--law", "bounds", "--law", "involution",
                     "--trials", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["bounds", "involution"]

    def test_unknown_law_id_exits_2(self, capsys):
        assert main(["check-laws", "--law", "no-such-law"]) == 2
        assert "unknown law id" in capsys.readouterr().err

    def test_seed_changes_the_sampled_cases(self, capsys):
        main(["check-laws", "--law", "demorgan-1", "--trials", "5", "--seed", "0"])
        base = capsys.readouterr().out
        main(["check-laws", "--law", "demorgan-1", "--trials", "5", "--seed", "1"])
        assert capsys.readouterr().out == base  # both pass: same report text


class TestPaperExample:
    def test_exits_zero_and_reports_every_section(self, capsys):
        assert main(["paper-example"]) == 0
        out = capsys.readouterr().out
        for heading in (
            "== workspace",
            "== F & G (intersection)",
            "== F | G (union)",
            "== F^c (complement)",
            "== F - G (difference)",
        ):
            assert heading in out
        assert out.count("OK:") == 5
        assert "ERRATUM" in out
        assert "e2: h2 h3 h5" in out
        assert "all fixtures match" in out

    def test_report_is_deterministic(self, capsys):
        main(["paper-example"])
        first = capsys.readouterr().out
        main(["paper-example"])
        assert capsys.readouterr().out == first

    def test_a_wrong_operation_fails_its_fixture(self, capsys, monkeypatch):
        monkeypatch.setattr(algebra, "difference", algebra.intersection)
        assert main(["paper-example"]) == 1
        out = capsys.readouterr().out
        section = out[out.index("== F - G (difference)") :]
        assert "FAIL: differs from the recorded fixture" in section
        assert out.count("OK:") == 4
        assert out.endswith("one or more fixtures differ\n")

    def test_a_changed_bundled_file_fails(self, capsys, monkeypatch):
        # an extra binding: F and G, and so every operation, still match
        changed = bundled_workspace_text() + "\nsoftset H:\n  e1: h1\n"
        monkeypatch.setattr(houses, "bundled_workspace_text", lambda: changed)
        assert main(["paper-example"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: bundled file differs from the recorded assignment" in out
        assert out.count("OK:") == 4
        assert out.endswith("one or more fixtures differ\n")


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_conflicting_modes(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["check-laws", "--exhaustive", "--random"])
        assert exc_info.value.code == 2

    def test_nonpositive_trials(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["check-laws", "--trials", "0"])
        assert exc_info.value.code == 2

    def test_negative_universe(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["check-laws", "--universe", "-1"])
        assert exc_info.value.code == 2


@pytest.mark.parametrize("module", ["softsets", "softsets.cli"])
def test_module_entry_points_report_errors(houses_file, module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "eval", houses_file, "F ? G"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: 1:3: illegal character '?'\n"


def test_module_entry_point(houses_file):
    proc = subprocess.run(
        [sys.executable, "-m", "softsets", "eval", houses_file, "F & G"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == RENDERED_INTERSECTION


def _child_env() -> dict:
    """The environment of a child process that imports the same softsets
    the suite is testing."""
    src = str(Path(softsets.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# What the wrapper that pip writes for a [project.scripts] entry does.
CONSOLE_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "softsets"
sys.exit({attr}())
"""


def _declared_console_script(name: str) -> str:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _run_console_script(*args: str) -> subprocess.CompletedProcess:
    entry = _declared_console_script("softsets")
    module, attr = (part.strip() for part in entry.split(":"))
    code = CONSOLE_WRAPPER.format(module=module, attr=attr)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=_child_env()
    )


def test_console_script(houses_file):
    proc = _run_console_script("show", houses_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == render_workspace(houses_workspace())
    # the script must hand main's exit code to sys.exit
    assert _run_console_script("eval", houses_file, "Q").returncode == 2


@pytest.mark.skipif(
    shutil.which("softsets") is None,
    reason="the softsets console script is not installed",
)
def test_installed_console_script(houses_file):
    proc = subprocess.run(
        ["softsets", "show", houses_file], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == render_workspace(houses_workspace())
