import itertools
import os
import random
from pathlib import Path

import pytest

import softsets
from softsets.houses import RESULTS
from softsets.laws import _random_soft_set, enumerate_soft_sets
from softsets.model import Context, new_context, soft_set

# The recorded rendering of each houses result, by its operation's name.
HOUSES_RENDERED = {name: rendered for _, name, rendered in RESULTS}

# One line per acceptance criterion, echoed after the test run so the
# pass/fail lines stay visible under output capture.
ACCEPTANCE_LINES: "list[str]" = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def child_env() -> dict:
    """The environment of a child process that imports the same softsets
    the suite is testing."""
    src = str(Path(softsets.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def ctx22() -> Context:
    return new_context(("x1", "x2"), ("e1", "e2"))


@pytest.fixture
def ctx32() -> Context:
    return new_context(("x1", "x2", "x3"), ("e1", "e2"))


@pytest.fixture
def ctx33() -> Context:
    return new_context(("x1", "x2", "x3"), ("e1", "e2", "e3"))


@pytest.fixture
def ctx66() -> Context:
    return new_context(
        tuple(f"x{i}" for i in range(1, 7)), tuple(f"e{i}" for i in range(1, 7))
    )


def frame(n_objects: int, n_params: int) -> Context:
    """The frame x1..xn by e1..em, as ``check-laws`` builds it."""
    return new_context(
        tuple(f"x{i}" for i in range(1, n_objects + 1)),
        tuple(f"e{i}" for i in range(1, n_params + 1)),
    )


def make(ctx: Context, **images):
    """Shorthand: make(ctx, e1="x1 x2", e3="x2") builds a soft set."""
    return soft_set(ctx, [(p, objs.split()) for p, objs in images.items()])


def all_pairs(ctx: Context):
    sets = list(enumerate_soft_sets(ctx))
    return itertools.product(sets, repeat=2)


def random_sets(ctx: Context, count: int, seed: int):
    """A deterministic stream of random soft sets from one shared rng."""
    rng = random.Random(seed)
    return [_random_soft_set(ctx, rng, 0.6, 0.5) for _ in range(count)]
