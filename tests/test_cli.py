"""Command-line behavior: output, exit codes, determinism."""

import contextlib
import io
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import softsets
from softsets import algebra, cli, houses
from softsets.cli import main
from softsets.houses import (
    RENDERED_COMPLEMENT,
    RENDERED_INTERSECTION,
    bundled_workspace_text,
    houses_workspace,
)
from softsets.laws import law_catalog
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

    def test_double_dash_after_the_separator_is_the_expression(self, houses_file, capsys):
        # argparse (Python 3.11 at least) reads this "--" as [], not as text
        for argv in (["eval", houses_file, "--", "--"], ["eval", "--", houses_file, "--"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: 1:1: unexpected token '-'\n"

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


EMPTY_IMAGE = "universe: a b\nparameters: e1 e2\nsoftset F:\n  e1: a\n  e2:\n"


class TestWarnings:
    """The loader's empty-image warning reaches the user as the CLI's own
    stderr line; exit code and stdout are those of the file without
    that line."""

    @pytest.mark.parametrize("argv", [["eval", "{}", "F^c"], ["show", "{}"]], ids=["eval", "show"])
    def test_empty_image_is_one_warning_line(self, tmp_path, capsys, argv):
        warned, plain = tmp_path / "warned.sset", tmp_path / "plain.sset"
        warned.write_text(EMPTY_IMAGE)
        plain.write_text(EMPTY_IMAGE.replace("  e2:\n", ""))
        assert main([arg.format(plain) for arg in argv]) == 0
        expected = capsys.readouterr().out
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main([arg.format(warned) for arg in argv]) == 0
        assert leaked == []
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == "warning: line 5: dropping empty image for parameter 'e2'\n"

    def test_library_callers_keep_the_user_warning(self):
        with pytest.warns(UserWarning, match="line 5: dropping empty image"):
            cli.load_workspace(EMPTY_IMAGE)


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_reused_without_changing_any_outcome(houses_file, capsys):
    calls = [
        ["eval", houses_file, "F & G"],
        ["eval", houses_file],  # usage error
        ["--help"],
        ["check-laws", "--law", "involution"],
        ["eval", houses_file, "F ? G"],  # lex error
        ["eval", houses_file, "F & G"],
    ]
    first = []
    for argv in calls:
        cli._build_parser.cache_clear()
        first.append(_outcome(capsys, argv))
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 2, 0]
    parser = cli._build_parser()
    assert [_outcome(capsys, argv) for argv in calls] == first
    assert cli._build_parser() is parser


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

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--trials", "abc", "invalid int value: 'abc'"),
            ("--trials", "0", "must be at least 1"),
            ("--cap", "abc", "invalid int value: 'abc'"),
            ("--cap", "0", "must be at least 1"),
            ("--universe", "x", "invalid int value: 'x'"),
            ("--universe", "-1", "must not be negative"),
            ("--params", "x", "invalid int value: 'x'"),
            ("--params", "-1", "must not be negative"),
            ("--seed", "x", "invalid int value: 'x'"),
        ],
    )
    def test_a_bad_count_reads_as_an_int_or_its_range(self, capsys, option, value, message):
        with pytest.raises(SystemExit) as exc_info:
            main(["check-laws", option, value])
        assert exc_info.value.code == 2
        last = capsys.readouterr().err.rstrip("\n").split("\n")[-1]
        assert last == f"softsets check-laws: error: argument {option}: {message}"


# The exit-code contract, fuzzed: whatever the input, main returns 0, 1,
# 2 or 3, only argparse's usage error escapes it (as SystemExit(2)), an
# exit 0 writes nothing to stderr but warning lines, and an exit 2 or 3
# ends stderr with its error line.

HOUSES_BYTES = (Path(__file__).resolve().parent.parent / "fixtures" / "houses.sset").read_bytes()

# What insertions into a workspace file draw from: a byte-order mark, a
# NUL, bytes that are not UTF-8, whitespace that str.split() splits on,
# and pieces of the format.
FILE_PIECES = (
    b"\xef\xbb\xbf", b"\x00", b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xc2\xa0", b"\xe2\x80\xa8",
    b"\n", b" ", b"\t", b"\r", b"#", b":", b"softset F:", b"softset H:\n", b"universe:",
    b"parameters:", b"  e1:", b" h9", b" e9", b"EMPTY",
)

EXPRESSION_PIECES = (
    "F", "G", "Q", "EMPTY", "UNIVERSAL", "and", "&", "|", "-", "\\", "^c", "^", "(", ")",
    "=", "<=", "=>", "<=>", " ", "\n", "?", "--",
)


@st.composite
def workspace_bytes(draw):
    data = HOUSES_BYTES
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(("delete", "insert", "repeat line", "empty line")))
        if edit == "delete":
            start = draw(st.integers(0, len(data)))
            data = data[:start] + data[start + draw(st.integers(1, 20)):]
        elif edit == "insert":
            at = draw(st.integers(0, len(data)))
            piece = draw(st.sampled_from(FILE_PIECES) | st.binary(min_size=1, max_size=4))
            data = data[:at] + piece + data[at:]
        else:
            lines = data.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [lines[k]] * 2 if edit == "repeat line" else [b""]
            data = b"\n".join(lines)
    return data


well_formed = st.recursive(
    st.sampled_from(("F", "G", "EMPTY", "UNIVERSAL")),
    lambda inner: st.tuples(inner, st.sampled_from((" & ", " | ", " - ", "\\")), inner).map("".join)
    | inner.map(lambda e: f"({e})^c"),
    max_leaves=8,
)

# Free text leaves out 'h': an argument starting "-h" or "--h" asks
# argparse for its help, which exits 0 by design.
expressions = st.one_of(
    well_formed,
    st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=12).map("".join),
    st.text(st.characters(exclude_characters="h"), max_size=12),
    st.text(st.characters(exclude_characters="h"), max_size=6).map(lambda t: "-" + t),
)


def _run_main(argv):
    """main's exit code and stderr; SystemExit counts as its code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"SystemExit({exc.code!r}) escaped main"
            code = 2
    return code, err.getvalue()


def _assert_contract(argv, code, err):
    assert code in (0, 1, 2, 3), (argv, code)
    lines = err.rstrip("\n").split("\n") if err else []
    if code == 0:
        assert all(line.startswith("warning: ") for line in lines), (argv, err)
    elif code in (2, 3):
        assert lines and "error:" in lines[-1], (argv, code, err)


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(data=workspace_bytes(), expression=expressions, shape=st.integers(0, 3), where=st.integers(0, 7))
def test_fuzzed_eval_and_show_keep_the_exit_code_contract(tmp_path, data, expression, shape, where):
    workspace = tmp_path / "fuzzed.sset"
    workspace.write_bytes(data)
    # mostly the fuzzed file; sometimes a directory or a missing file
    path = str({6: tmp_path, 7: tmp_path / "missing.sset"}.get(where, workspace))
    argv = (
        ["eval", path, expression],
        ["eval", path, "--", expression],
        ["eval", "--", path, expression],
        ["show", path],
    )[shape]
    _assert_contract(argv, *_run_main(argv))


LAW_IDS = tuple(law.id for law in law_catalog()) + ("no-such-law",)


@st.composite
def check_laws_argv(draw):
    argv = ["check-laws"]
    modes = ([], ["--exhaustive"], ["--exhaustive"], ["--random"], ["--exhaustive", "--random"])
    argv += draw(st.sampled_from(modes))
    argv += ["--trials", str(draw(st.integers(1, 50)))]
    options = (
        ("--universe", st.integers(0, 4)),
        ("--params", st.integers(0, 4)),
        ("--seed", st.integers(-3, 3)),
        ("--cap", st.integers(1, 5000)),
    )
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    for law_id in draw(st.lists(st.sampled_from(LAW_IDS), max_size=3)):
        argv += ["--law", law_id]
    return argv


@FUZZ
@given(argv=check_laws_argv())
def test_fuzzed_check_laws_keeps_the_exit_code_contract(argv):
    _assert_contract(argv, *_run_main(argv))


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


# Modules that ``import softsets.cli`` must not load: the CLI imports the
# law catalog (and the dataclasses of its reports) only for check-laws,
# and the bundled example only for paper-example.
LAZY_MODULES = (
    "dataclasses",
    "inspect",
    "importlib.resources",
    "typing",
    "pathlib",
    "softsets.laws",
    "softsets.houses",
)

START_UP = f"""\
import sys
import softsets.cli
print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))
print(softsets.cli.main(["check-laws", "--law", "involution"]))
print(softsets.cli.main(["paper-example"]))
print(sorted(m for m in ("importlib.resources", "pathlib") if m in sys.modules))
"""


def test_start_up_imports_no_laws_houses_or_dataclasses():
    # -S keeps site-wide .pth imports out of the check.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0] == "[]"
    assert lines[1:3] == ["involution: random, 1000 cases, PASS", "0"]
    # paper-example reads the bundled file without importlib.resources
    assert proc.stdout.endswith("all fixtures match\n0\n[]\n")


def test_law_catalog_imports_no_typing():
    code = "import sys, softsets.laws; print('typing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
