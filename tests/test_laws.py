"""The law catalog and its checking machinery: enumeration, random
generation, exhaustive and randomized verification, shrinking."""

import itertools
import json
import math
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softsets import algebra, expr, laws
from softsets.errors import ContextMismatch, EnumerationTooLarge
from softsets.houses import bundled_workspace_text
from softsets.laws import (
    CHUNK_BITS,
    DEFAULT_CAP,
    CheckReport,
    FormulaCheck,
    Law,
    check_cap,
    check_exhaustive,
    check_random,
    enumerate_soft_sets,
    formula_law,
    law_catalog,
    lookup,
    random_soft_set,
    shrink,
    soft_set_count,
    _bernoulli,
    _exhaustive_chunks,
    _random_chunk,
    _random_chunks,
    _random_soft_set,
    _report_violation,
    _split,
    _transpose,
    _transposed,
    _trial,
)
from softsets.model import Context, SoftSet, new_context, soft_set

from .conftest import child_env, frame, make
from .mutants import BROKEN_LAWS


class TestCatalog:
    def test_every_enumerated_assertion_is_present(self):
        # count fixed here, on purpose: the catalog carries one entry per
        # verified assertion, paired laws split into -1/-2 and the two
        # characterization directions listed separately
        assert len(law_catalog()) == 23

    def test_ids_are_unique(self):
        ids = [law.id for law in law_catalog()]
        assert len(ids) == len(set(ids))

    def test_arities(self):
        arities = {law.id: law.arity for law in law_catalog()}
        assert arities["identity-1"] == 1
        assert arities["commutative-2"] == 2
        assert arities["associative-1"] == 3
        assert arities["distributive-2"] == 3
        assert arities["monotonicity-cap"] == 4
        assert set(arities.values()) == {1, 2, 3, 4}

    def test_arg_names_match_arity(self):
        for law in law_catalog():
            assert len(law.arg_names) == law.arity
            assert law.statement

    def test_lookup(self):
        assert lookup("demorgan-1").arity == 2
        assert lookup("bounds").arity == 1
        with pytest.raises(KeyError):
            lookup("no-such-law")


class TestFormulaLaws:
    def test_every_catalog_law_is_its_text(self):
        for law in law_catalog():
            assert isinstance(law.check, FormulaCheck), law.id
            assert law.check.text == law.statement
            assert law.check.arg_names == law.arg_names
        assert repr(lookup("subset-iff-cap").check) == (
            "FormulaCheck('F <= G <=> F & G = F', ('F', 'G'))"
        )

    def test_argument_order_is_fixed(self):
        # the order numbers the exhaustive cases, so it must not follow
        # the order in which names appear in the text
        assert lookup("monotonicity-cap").arg_names == ("F1", "G1", "F2", "G2")
        assert lookup("complement-characterization-fwd").arg_names == ("F", "G")

    # "F F" would make a law of arity 2 whose counterexamples render one
    # soft set F for two arguments.
    @pytest.mark.parametrize("names,text", [("F", "F = G"), ("F G", "F = F"), ("F F", "F = EMPTY")])
    def test_names_must_match_the_arguments(self, names, text):
        with pytest.raises(ValueError):
            formula_law("mismatch", names, text)

    @pytest.mark.parametrize("law_id", ["bounds", "commutative-1"])
    def test_arguments_over_another_frame_are_refused(self, law_id, ctx22, ctx33):
        law = lookup(law_id)
        with pytest.raises(ContextMismatch):
            law.check(ctx22, (SoftSet(ctx33, 0),) * law.arity)
        with pytest.raises(ContextMismatch):
            law.check(ctx22, (SoftSet(ctx33, 0),) + (SoftSet(ctx22, 0),) * (law.arity - 1))
        assert law.check(ctx33, (SoftSet(ctx33, 0),) * law.arity) is None

    def test_the_grammar_builds_five_formula_operators(self):
        # Shrinking ends a text law's counterexample on one cell because a
        # formula fails through one false relation; a connective such as
        # "or" or negation would break that, so a grammar change fails here.
        lexemes = list(expr._KINDS) + ["and", "or", "not", "xor", "F"]
        templates = [
            "F {0} G", "F = G {0} F = G", "F = G and F = G {0} F <= G",
            "F = G {0} F = G {0} F = G", "{0} F = G",
        ]
        ops = set()
        for lexeme, template in itertools.product(lexemes, templates):
            try:
                formula = expr.parse_formula(template.format(lexeme))
            except (expr.LexError, expr.ParseError):
                continue
            ops.update(op for cls, op in formula._key() if cls is expr.Formula)
        assert ops == {"=", "<=", "and", "=>", "<=>"}

    def test_violation_details(self, ctx22):
        f, g = make(ctx22, e1="x1"), make(ctx22, e1="x2")
        assert formula_law("eq", "F G", "F = G").check(ctx22, (f, g)) == (
            f"left side {f!r} differs from right side {g!r}"
        )
        assert formula_law("le", "F G", "F <= G").check(ctx22, (f, g)) == (
            f"{f!r} is not a subset of {g!r}"
        )
        assert formula_law("iff", "F G", "F <= G <=> F = F").check(ctx22, (f, g)) == (
            "the left side is False but the right side is True"
        )
        assert formula_law("imp", "F G", "F = G => F <= G").check(ctx22, (f, g)) is None

    def test_a_tuple_of_another_length_is_refused(self, ctx22):
        # With three arguments the values of the steps would shift and
        # read as a pass; with one, a step would read past the values.
        law = formula_law("x", "F G", "F = G")
        f = make(ctx22, e1="x1")
        for args in [(f, f, f), (f,), ()]:
            with pytest.raises(ValueError, match=f"takes 2 arguments, not {len(args)}$"):
                law.check(ctx22, args)
        # On one cell with an empty argument, shrinking calls no check.
        for ctx, arg in [(ctx22, f), (new_context(("x1",), ("e1",)), None)]:
            with pytest.raises(ValueError, match="takes 2 arguments, not 1$"):
                shrink(law, ctx, (arg or SoftSet(ctx, 0),))


class TestEnumeration:
    @pytest.mark.parametrize(
        "n_objects,n_params,expected",
        [(1, 1, 2), (2, 2, 16), (3, 2, 64), (1, 3, 8), (2, 0, 1)],
    )
    def test_counts(self, n_objects, n_params, expected):
        ctx = new_context(
            tuple(f"x{i}" for i in range(n_objects)),
            tuple(f"e{i}" for i in range(n_params)),
        )
        assert soft_set_count(ctx) == expected
        sets = list(enumerate_soft_sets(ctx))
        assert len(sets) == expected
        assert len(set(sets)) == expected

    def test_agrees_with_image_level_enumeration(self, ctx22):
        # independent route: every assignment of subsets to parameters,
        # built through the normalizing constructor and deduplicated
        subsets = [
            frozenset(combo)
            for r in range(len(ctx22.objects) + 1)
            for combo in itertools.combinations(ctx22.objects, r)
        ]
        by_images = {
            soft_set(ctx22, list(zip(ctx22.parameters, assignment)))
            for assignment in itertools.product(subsets, repeat=len(ctx22.parameters))
        }
        assert by_images == set(enumerate_soft_sets(ctx22))

    def test_order_is_deterministic(self, ctx22):
        assert list(enumerate_soft_sets(ctx22)) == list(enumerate_soft_sets(ctx22))

    def test_first_element_is_the_empty_soft_set(self, ctx22):
        first = next(enumerate_soft_sets(ctx22))
        assert first.is_empty()

    def test_cap_is_enforced(self, ctx22):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_soft_sets(ctx22, cap=15))
        assert len(list(enumerate_soft_sets(ctx22, cap=16))) == 16
        # a negative cap refuses every count, the one soft set of the
        # empty frame too; caps 0 and 1 admit nothing and one soft set
        one, empty = new_context(("a",), ("p",)), new_context((), ())
        for ctx, cap in [(one, -3), (one, -1), (empty, -1), (one, 0), (empty, 0), (one, 1)]:
            with pytest.raises(EnumerationTooLarge):
                list(enumerate_soft_sets(ctx, cap=cap))
        assert len(list(enumerate_soft_sets(empty, cap=1))) == 1
        assert len(list(enumerate_soft_sets(one, cap=2))) == 2

    def test_default_cap_rejects_five_by_five(self):
        ctx = new_context(tuple("abcde"), tuple("pqrst"))
        assert soft_set_count(ctx) == 2**25
        with pytest.raises(EnumerationTooLarge):
            next(enumerate_soft_sets(ctx))


class TestRandomGeneration:
    def test_same_seed_same_soft_set(self, ctx66):
        a = random_soft_set(ctx66, 123)
        b = random_soft_set(ctx66, 123)
        assert a == b

    def test_different_seeds_differ_somewhere(self, ctx66):
        sets = {random_soft_set(ctx66, seed) for seed in range(20)}
        assert len(sets) > 1

    def test_density_extremes(self, ctx33):
        assert _random_soft_set(ctx33, random.Random(0), 0.0, 0.5).is_empty()
        assert _random_soft_set(ctx33, random.Random(0), 1.0, 1.0).is_universal()
        # and over a plane of 500 trials
        assert set(_draw(ctx33, 500, 0, 0.0, 0.5)) == {0}
        assert set(_draw(ctx33, 500, 0, 1.0, 1.0)) == {ctx33.full_bits}
        for bits in _draw(ctx33, 500, 0, 1.0, 0.5):
            assert all(SoftSet(ctx33, bits).masks)
        for bits in _draw(ctx33, 500, 0, 0.5, 1.0):
            assert set(SoftSet(ctx33, bits).masks) <= {0, ctx33.full_mask}

    def test_defined_images_are_never_empty(self, ctx33):
        for seed in range(200):
            s = _random_soft_set(ctx33, random.Random(seed), 0.9, 0.1)
            for e in s.domain():
                assert s.image(e)


def _draw(ctx, trials, seed, dd, md):
    """``trials`` soft sets from the chunk generator, as packed bits."""
    n = len(ctx.objects) * len(ctx.parameters)
    return list(_transpose(_random_chunk(ctx, trials, random.Random(seed), dd, md), n, trials))


def _expected_frequencies(ctx, dd, md):
    """Probability of each packed soft set: parameters independent, each
    undefined with probability 1 - dd, else an image with each object in
    it with probability md, conditioned on being nonempty."""
    n_objects = len(ctx.objects)
    image = {0: 1 - dd}
    for m in range(1, 1 << n_objects):
        k = bin(m).count("1")
        image[m] = dd * md**k * (1 - md) ** (n_objects - k) / (1 - (1 - md) ** n_objects)
    return {
        s.bits: math.prod(image[m] for m in s.masks) for s in enumerate_soft_sets(ctx)
    }


class TestPlaneGenerator:
    @pytest.mark.parametrize("dd,md", [(0.6, 0.5), (0.75, 0.3), (0.5, 0.9), (0.6, 0.05)])
    def test_soft_set_frequencies(self, ctx32, dd, md):
        # chi-squared over the 64 soft sets at 3 x 2 (63 degrees of
        # freedom; 110 is exceeded with probability about 2e-4); at
        # member density 0.05 about 86% of first draws are empty, so most
        # images come from later rounds
        n = 200_000
        counts = Counter(_draw(ctx32, n, 0, dd, md))
        expected = _expected_frequencies(ctx32, dd, md)
        chi2 = sum((counts[bits] - n * p) ** 2 / (n * p) for bits, p in expected.items())
        assert chi2 < 110, chi2

    def test_one_trial_frequencies(self):
        ctx = new_context(("x1", "x2"), ("e1",))
        rng = random.Random(1)
        n = 20_000
        counts = Counter(_random_soft_set(ctx, rng, 0.6, 0.5).bits for _ in range(n))
        expected = _expected_frequencies(ctx, 0.6, 0.5)
        chi2 = sum((counts[bits] - n * p) ** 2 / (n * p) for bits, p in expected.items())
        assert chi2 < 16, chi2  # 3 degrees of freedom

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.3, 0.1, 0.99, 2**-10])
    def test_bernoulli_plane_density(self, p):
        n = 1 << 18
        ones = _bernoulli(random.Random(2), n, p).bit_count()
        assert abs(ones - n * p) < 5 * math.sqrt(n * p * (1 - p)), (ones, n * p)

    def test_half_density_takes_one_draw(self):
        rng, reference = random.Random(3), random.Random(3)
        assert _bernoulli(rng, 100, 0.5) == reference.getrandbits(100) ^ (1 << 100) - 1
        assert rng.getstate() == reference.getstate()
        assert _bernoulli(rng, 100, 1.0) == (1 << 100) - 1
        assert _bernoulli(rng, 100, 0.0) == 0
        assert rng.getstate() == reference.getstate()  # densities 0 and 1 draw nothing

    def test_defined_images_are_drawn_nonempty(self, ctx33):
        # an image that came out empty would read as undefined, so every
        # parameter must still be defined in about dd of the trials, even
        # where most first draws are empty
        n = 50_000
        sets = [SoftSet(ctx33, bits) for bits in _draw(ctx33, n, 4, 0.9, 0.1)]
        for j in range(3):
            defined = sum(1 for s in sets if s.masks[j])
            assert abs(defined - 0.9 * n) < 5 * math.sqrt(n * 0.9 * 0.1), defined

    def test_deterministic_per_seed(self, ctx66):
        assert _draw(ctx66, 300, 5, 0.6, 0.5) == _draw(ctx66, 300, 5, 0.6, 0.5)
        assert _draw(ctx66, 300, 5, 0.6, 0.5) != _draw(ctx66, 300, 6, 0.6, 0.5)

    def test_one_trial_is_the_generator_at_width_one(self, ctx66):
        rng, planes_rng = random.Random(8), random.Random(8)
        for _ in range(20):
            (bits,) = _transpose(_random_chunk(ctx66, 1, planes_rng, 0.6, 0.5), 36, 1)
            assert _random_soft_set(ctx66, rng, 0.6, 0.5) == SoftSet(ctx66, bits)

    def test_transpose(self):
        # trial t's value gathers bit t of every block, block j at bit j
        chunk = 0b0001_1100_0110
        assert list(_transpose(chunk, 3, 4)) == [0b100, 0b001, 0b011, 0b010]
        assert [_trial(chunk, 3, 4, t) for t in range(4)] == [0b100, 0b001, 0b011, 0b010]
        assert list(_transpose(0, 0, 3)) == [0, 0, 0]


def _reference_random_chunk(ctx, width, rng, defined_density, member_density):
    """The chunk generator's rounds read cell by cell.  Parameter i's
    defined plane is block i of the first draw, and its image run
    |E|-1-i of the chunk.  Each round's member plane covers every
    run; a (parameter, trial) still empty takes its |U| bits from it,
    every width-th digit of the plane from the cell's first, and is
    empty no more once one of them is set."""
    n_objects, n_params = len(ctx.objects), len(ctx.parameters)
    image_bits = n_objects * width

    def digits(wide, n_bits):  # bit b of ``wide`` at index b
        return format(wide, f"0{n_bits}b")[::-1] if n_bits else ""

    defined = digits(_bernoulli(rng, n_params * width, defined_density), n_params * width)
    empty = [
        (i, t) for i in range(n_params) for t in range(width)
        if defined[i * width + t] == "1"
    ]
    chunk = ["0"] * (n_params * image_bits)
    while empty:
        plane = digits(_bernoulli(rng, n_params * image_bits, member_density), n_params * image_bits)
        still_empty = []
        for i, t in empty:
            cell = slice((n_params - 1 - i) * image_bits + t, (n_params - i) * image_bits, width)
            if "1" in plane[cell]:
                chunk[cell] = plane[cell]
            else:
                still_empty.append((i, t))
        empty = still_empty
    return int("".join(reversed(chunk)) or "0", 2)


def _reference_transpose(wide, n, width):
    """The transposition as it was before it read digits by stride: one
    string per block, zipped into columns."""
    blocks = _split(wide, n, width)
    if not blocks:
        return itertools.repeat(0, width)
    rows = [format(block, f"0{width}b")[::-1] for block in reversed(blocks)]
    return (int("".join(column), 2) for column in zip(*rows))


# Odd universes and powers of two, which put the second window of the
# emptiness test at its edges; widths around a machine word.
STREAM_FRAMES = [(0, 0), (3, 0), (1, 1), (2, 2), (3, 5), (5, 1), (6, 6), (7, 2), (8, 3), (40, 40)]
STREAM_WIDTHS = [1, 2, 50, 63, 64, 65, 333, 1310]
STREAM_DENSITIES = [(0.6, 0.5), (0.1, 0.05), (1.0, 1.0), (0.3, 0.9)]


@pytest.mark.parametrize("n_objects, n_params", STREAM_FRAMES)
def test_random_stream_matches_the_reference(n_objects, n_params):
    # The same chunks, trials and generator state afterwards.  Reading a
    # 40 x 40 chunk cell by cell takes about 1 s over all widths and
    # densities, and transposing it the reference way about 20 ms at the
    # widest width, so that frame draws from the first four seeds only.
    ctx = frame(n_objects, n_params)
    n = n_objects * n_params
    seeds = range(4) if n > 1000 else range(20)
    for width, (dd, md), seed in itertools.product(STREAM_WIDTHS, STREAM_DENSITIES, seeds):
        rng, reference = random.Random(seed), random.Random(seed)
        chunk = _random_chunk(ctx, width, rng, dd, md)
        assert chunk == _reference_random_chunk(ctx, width, reference, dd, md), (width, dd, md, seed)
        assert rng.getstate() == reference.getstate(), (width, dd, md, seed)
        trials = list(_transpose(chunk, n, width))
        assert trials == list(_reference_transpose(chunk, n, width)), (width, dd, md, seed)


class TestCheckExhaustive:
    def test_case_counts_scale_with_arity(self, ctx22):
        assert check_exhaustive(lookup("involution"), ctx22).cases == 16
        assert check_exhaustive(lookup("demorgan-1"), ctx22).cases == 256
        assert check_exhaustive(lookup("associative-1"), ctx22).cases == 4096

    def test_a_negative_cap_refuses_the_one_tuple_of_the_empty_frame(self):
        law, ctx = lookup("identity-1"), new_context((), ())
        for cap in (-5, -1, 0):
            with pytest.raises(EnumerationTooLarge):
                check_exhaustive(law, ctx, cap=cap)
        assert check_exhaustive(law, ctx, cap=1).cases == 1

    def test_demorgan_1_all_pairs(self, ctx22):
        report = check_exhaustive(lookup("demorgan-1"), ctx22)
        assert report.passed
        assert report.mode == "exhaustive"
        assert report.seed is None

    def test_cap_checked_against_tuple_count(self, ctx32):
        # 64 soft sets: fine for arity 3 (262144) but not arity 4
        assert check_exhaustive(lookup("distributive-1"), ctx32).passed
        with pytest.raises(EnumerationTooLarge):
            check_exhaustive(lookup("monotonicity-cap"), ctx32, cap=DEFAULT_CAP)

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_a_flagged_tuple_is_checked_once(self, mode):
        # the loop's own check of the tuple is the one the report uses;
        # shrinking then only checks smaller tuples
        calls = []

        def check(ctx, args):
            calls.append((ctx, args))
            return None if args[0].is_empty() else "F is not empty"

        law = Law("empty", 1, "F is empty", check, ("F",))
        ctx = frame(2, 1)
        if mode == "exhaustive":
            report = check_exhaustive(law, ctx)
        else:
            report = check_random(law, ctx, 100, 0)
        flagged = next(call for call in calls if not call[1][0].is_empty())
        assert calls.count(flagged) == 1
        assert len(report.counterexample.context.objects) == 1
        assert report.counterexample.detail == "F is not empty"

    @pytest.mark.parametrize("text", ["EMPTY <= UNIVERSAL", "UNIVERSAL <= EMPTY"])
    def test_an_arity_0_law_is_one_case_on_any_frame(self, text):
        # the same law as a plain Python check takes the per-tuple path,
        # which must not list the 2**25 soft sets of the frame
        law = formula_law("t", "", text)
        plain = replace(law, check=lambda ctx, args: law.check(ctx, args))
        ctx = frame(5, 5)
        report = check_exhaustive(law, ctx)
        assert report.cases == 1
        assert check_exhaustive(plain, ctx) == report

    def test_finds_and_shrinks_a_violation(self, ctx22):
        broken = BROKEN_LAWS[0]  # difference commutes
        report = check_exhaustive(broken, ctx22)
        assert not report.passed
        assert report.cases <= 256
        cex = report.counterexample
        assert broken.check(cex.context, cex.args) is not None


def _exhaustive_by_loop(law, ctx):
    """Reference for the exhaustive driver of a plain-Python check: call
    it on each tuple in turn and report the first one it flags."""
    all_sets = list(enumerate_soft_sets(ctx)) if law.arity else []
    for case, args in enumerate(itertools.product(all_sets, repeat=law.arity), 1):
        detail = law.check(ctx, args)
        if detail is not None:
            return _report_violation(law, "exhaustive", case, ctx, args, None, detail)
    return CheckReport(law.id, "exhaustive", len(all_sets) ** law.arity, None, None)


def _difference_monotone(ctx, args):
    """The shape of a 4-ary plain-Python law: a hypothesis, then a subset."""
    f1, g1, f2, g2 = args
    if not (algebra.subset(f1, g1) and algebra.subset(f2, g2)):
        return None
    left, right = algebra.difference(f1, f2), algebra.difference(g1, g2)
    return None if algebra.subset(left, right) else f"{left!r} is not a subset of {right!r}"


PLAIN_LAWS = {
    "fails-first": Law("first", 2, "never", lambda ctx, args: f"{args[0]!r} given", ("F", "G")),
    "fails-last": Law(
        "last", 2, "not both universal",
        lambda ctx, args: "both universal" if all(a.is_universal() for a in args) else None,
        ("F", "G"),
    ),
    "never-fails": Law("never", 3, "always", lambda ctx, args: None, ("F", "G", "H")),
    "arity-0-true": Law("true", 0, "true", lambda ctx, args: None, ()),
    "arity-0-false": Law("false", 0, "false", lambda ctx, args: "false", ()),
    "4-ary": Law(
        "monotone-difference", 4, "F1 <= G1 and F2 <= G2 => F1 - F2 <= G1 - G2",
        _difference_monotone, ("F1", "G1", "F2", "G2"),
    ),
}


@pytest.mark.parametrize("law", PLAIN_LAWS.values(), ids=PLAIN_LAWS)
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 0)])
def test_exhaustive_driver_matches_a_tuple_by_tuple_loop(law, shape):
    ctx = frame(*shape)
    report = check_exhaustive(law, ctx)
    # equal reports: case number, and the counterexample's frame, args,
    # detail and rendering
    assert report == _exhaustive_by_loop(law, ctx)
    if law.arity == 0:
        assert report.cases == 1
    if law.id == "last" and shape != (0, 0):
        assert report.cases == soft_set_count(ctx) ** 2


def _random_by_loop(law, ctx, trials, seed):
    """Reference for the random driver of a plain-Python check: draw the
    chunks as ``laws._draw`` does, transpose each, and call the check on
    each tuple in turn."""
    n = len(ctx.objects) * len(ctx.parameters)
    per_chunk = max(1, min(1 << CHUNK_BITS, laws.RANDOM_CHUNK_PLANE_BITS // max(1, n * law.arity)))
    rng = random.Random(seed)
    rows = []
    for start in range(0, trials, per_chunk):
        width = min(per_chunk, trials - start)
        chunks = laws._draw(ctx, width, law.arity, rng, laws.DEFINED_DENSITY, laws.MEMBER_DENSITY)
        columns = [[SoftSet(ctx, bits) for bits in _transpose(chunk, n, width)] for chunk in chunks]
        rows += zip(*columns) if columns else [()] * width
    assert len(rows) == trials
    for case, args in enumerate(rows, 1):
        detail = law.check(ctx, args)
        if detail is not None:
            return _report_violation(law, "random", case, ctx, args, seed, detail)
    return CheckReport(law.id, "random", trials, None, seed)


@pytest.mark.parametrize("law", PLAIN_LAWS.values(), ids=PLAIN_LAWS)
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 2)])
def test_random_driver_matches_a_tuple_by_tuple_loop(law, shape, monkeypatch):
    ctx = frame(*shape)
    for trials, seed in itertools.product((1, 7), (0, 5)):
        assert check_random(law, ctx, trials, seed) == _random_by_loop(law, ctx, trials, seed)
    # 108 plane bits make chunks of a few trials; the trial counts fall on
    # both sides of a chunk boundary and span several chunks
    monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 108)
    n = shape[0] * shape[1]
    per_chunk = max(1, 108 // max(1, n * law.arity))
    for trials in (per_chunk - 1, per_chunk, per_chunk + 1, 3 * per_chunk + 1):
        if trials:
            report = check_random(law, ctx, trials, 0)
            assert report == _random_by_loop(law, ctx, trials, 0), trials
    if law.arity == 0:
        assert report.cases == (1 if law.id == "false" else trials)


# Textbook identities that the catalog omits (ROADMAP item 1), written
# here rather than in the catalog so that `check-laws` output and every
# pin stay as they are.
OMITTED_IDENTITIES = (
    formula_law("absorption-1", "F G", "F & (F | G) = F"),
    formula_law("absorption-2", "F G", "F | (F & G) = F"),
    formula_law("complement-meet", "F", "F & F^c = EMPTY"),
    formula_law("complement-join", "F", "F | F^c = UNIVERSAL"),
    formula_law("self-difference", "F", "F - F = EMPTY"),
    formula_law("difference-demorgan-1", "F G H", "F - (G | H) = (F - G) & (F - H)"),
    formula_law("difference-demorgan-2", "F G H", "F - (G & H) = (F - G) | (F - H)"),
    formula_law("subset-transitive", "F G H", "F <= G and G <= H => F <= H"),
    formula_law("complement-constants", "", "EMPTY^c = UNIVERSAL and UNIVERSAL^c = EMPTY"),
)


@pytest.mark.parametrize("law", OMITTED_IDENTITIES, ids=lambda law: law.id)
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
def test_omitted_textbook_identities_hold(law, shape):
    ctx = frame(*shape)
    report = check_exhaustive(law, ctx)
    assert report.passed, report.counterexample
    assert report.cases == soft_set_count(ctx) ** law.arity


# Every law written as text, plus one whose first failure at 3 x 2 lies
# past the first chunk: it needs F = UNIVERSAL (soft set 63 of 64), which
# holds only in the last 2**12 of the 2**18 tuples.
TEXT_LAWS = (
    law_catalog()
    + tuple(law for law in BROKEN_LAWS if isinstance(law.check, FormulaCheck))
    + (formula_law("universal-forces-equality", "F G H", "F = UNIVERSAL => G = H"),)
)
FRAMES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3)]



def _nth(trials, t):
    """Trial ``t`` of a transposition."""
    return next(itertools.islice(trials, t, None))


def _first_failure_by_scan(law, ctx):
    sets = list(enumerate_soft_sets(ctx))
    for index, args in enumerate(itertools.product(sets, repeat=law.arity)):
        if law.check(ctx, args) is not None:
            return index
    return None


class TestSlicedChecking:
    @pytest.mark.parametrize("law", TEXT_LAWS, ids=lambda law: law.id)
    def test_agrees_with_a_scan_of_every_tuple(self, law):
        for n_objects, n_params in FRAMES:
            ctx = frame(n_objects, n_params)
            try:
                check_cap(law, ctx)
            except EnumerationTooLarge:
                continue
            expected = _first_failure_by_scan(law, ctx)
            report = check_exhaustive(law, ctx)
            if expected is None:
                assert report.passed
                assert report.cases == soft_set_count(ctx) ** law.arity
            else:
                scalar = replace(law, check=lambda c, args: law.check(c, args))
                assert report == check_exhaustive(scalar, ctx)
                assert report.cases == expected + 1

    def test_first_failure_past_the_first_chunk(self, ctx32):
        law = TEXT_LAWS[-1]
        # case (63 << 12) + 2 is index (63 << 12) + 1: F universal, G
        # empty, H the first nonempty set, in the fourth chunk
        assert check_exhaustive(law, ctx32).cases == (63 << 12) + 2
        assert (63 << 12) + 1 >= 1 << CHUNK_BITS

    @pytest.mark.parametrize(
        "n_objects, n_params, arity",
        [(0, 0, 2), (1, 1, 1), (2, 2, 2), (2, 2, 4), (4, 4, 1), (3, 2, 3), (3, 3, 2)],
    )
    def test_a_failing_tuple_decodes_as_the_transposition_reads_it(
        self, n_objects, n_params, arity
    ):
        # the first and last chunks and the first, a middle and the last
        # trial of each; the last two frames take more than one chunk
        n = n_objects * n_params
        chunks = list(_exhaustive_chunks(n, arity))
        assert (len(chunks) > 1) == (n * arity > CHUNK_BITS)
        ends = [chunks[0], chunks[-1]] if len(chunks) > 1 else chunks
        for _, width, args in ends:
            for t in (0, width // 2, width - 1):
                for chunk in args:
                    assert _trial(chunk, n, width, t) == _nth(_transpose(chunk, n, width), t)

    def test_difference_monotonicity_is_refuted(self, ctx22, ctx33):
        law = BROKEN_LAWS[-1]
        assert check_exhaustive(law, ctx22).cases == 4354
        assert check_random(law, ctx33, trials=1000, seed=0).cases == 349

    def test_exhaustive_checking_imports_no_numpy(self, tmp_path):
        # numpy is a test-only dependency: after an exhaustive check and
        # after each of these commands, run in one process, it is still
        # not imported
        houses = tmp_path / "houses.sset"
        houses.write_text(bundled_workspace_text(), encoding="utf-8")
        commands = [
            ["eval", str(houses), "(F & G)^c"],
            ["show", str(houses)],
            ["check-laws"],
            ["paper-example"],
        ]
        code = (
            "import contextlib, io, sys, softsets.cli\n"
            "from softsets import laws\n"
            "from softsets.model import new_context\n"
            "ctx = new_context(('x1', 'x2'), ('e1', 'e2'))\n"
            "assert laws.check_exhaustive(laws.lookup('monotonicity-cap'), ctx).passed\n"
            "print('check_exhaustive', 'numpy' in sys.modules)\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert softsets.cli.main(argv) == 0, argv\n"
            "    print(argv[0], 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        steps = ["check_exhaustive"] + [argv[0] for argv in commands]
        assert proc.stdout.splitlines() == [f"{step} False" for step in steps]


def _reference_holds(f, env, ctx):
    """Whether a formula holds on one tuple, evaluated apart from
    FormulaCheck: each side of a relation through ``expr.evaluate``,
    compared with ``algebra.equals`` or ``algebra.subset``."""
    if f.op == "and":
        return _reference_holds(f.left, env, ctx) and _reference_holds(f.right, env, ctx)
    if f.op == "=>":
        return not _reference_holds(f.left, env, ctx) or _reference_holds(f.right, env, ctx)
    if f.op == "<=>":
        return _reference_holds(f.left, env, ctx) == _reference_holds(f.right, env, ctx)
    relation = algebra.equals if f.op == "=" else algebra.subset
    return relation(expr.evaluate(f.left, env, ctx), expr.evaluate(f.right, env, ctx))


@pytest.mark.parametrize("law", TEXT_LAWS, ids=lambda law: law.id)
def test_check_agrees_with_a_reference_evaluation(law):
    formula = expr.parse_formula(law.statement)
    for n_objects, n_params in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        if (n_objects, n_params) == (2, 2) and law.arity > 2:
            continue
        ctx = frame(n_objects, n_params)
        for args in itertools.product(enumerate_soft_sets(ctx), repeat=law.arity):
            holds = _reference_holds(formula, dict(zip(law.arg_names, args)), ctx)
            assert (law.check(ctx, args) is None) == holds, (ctx, args)


def _relations(f):
    """The relations of a formula, in the order its check runs them."""
    if f.op in ("and", "=>", "<=>"):
        return _relations(f.left) + _relations(f.right)
    return [f]


def _reference_detail(f, env, ctx):
    """The violation detail of a formula on one tuple, built apart from
    FormulaCheck: the truth values of the sides of a ``<=>``, or else
    the first failing relation of the conclusion."""
    if f.op == "<=>":
        left, right = _reference_holds(f.left, env, ctx), _reference_holds(f.right, env, ctx)
        return f"the left side is {left} but the right side is {right}"
    for relation in _relations(f.right if f.op == "=>" else f):
        if not _reference_holds(relation, env, ctx):
            a, b = expr.evaluate(relation.left, env, ctx), expr.evaluate(relation.right, env, ctx)
            if relation.op == "=":
                return f"left side {a!r} differs from right side {b!r}"
            return f"{a!r} is not a subset of {b!r}"
    raise AssertionError("a failing formula has a failing relation")


@pytest.mark.parametrize("law", TEXT_LAWS, ids=lambda law: law.id)
def test_check_details_match_a_reference(law):
    formula = expr.parse_formula(law.statement)
    for shape in [(2, 1), (1, 2)]:
        ctx = frame(*shape)
        for args in itertools.product(enumerate_soft_sets(ctx), repeat=law.arity):
            env = dict(zip(law.arg_names, args))
            holds = _reference_holds(formula, env, ctx)
            expected = None if holds else _reference_detail(formula, env, ctx)
            assert law.check(ctx, args) == expected, (ctx, args)


# Operations broken in a bitwise way, so that the bit-sliced and the
# per-tuple evaluations still agree.
BITWISE_MUTANTS = {
    "intersection": lambda s, t: SoftSet(s.context, s.bits | t.bits),
    "union": lambda s, t: SoftSet(s.context, s.bits ^ t.bits),
    "complement": lambda s: SoftSet(s.context, s.bits),
    "difference": lambda s, t: SoftSet(s.context, s.bits ^ t.bits),
}


class TestChecksGoThroughTheAlgebra:
    @pytest.mark.parametrize("name", BITWISE_MUTANTS)
    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_a_broken_operation_refutes_the_catalog(self, name, mode, monkeypatch, ctx22):
        # a law's steps look the algebra up at each run, so checks built
        # and run before the patch see it too
        for law in law_catalog():
            law.check(ctx22, (SoftSet(ctx22, 0),) * law.arity)
        monkeypatch.setattr(algebra, name, BITWISE_MUTANTS[name])
        refuted = 0
        for law in law_catalog():
            if mode == "exhaustive":
                report = check_exhaustive(law, ctx22)
            else:
                report = check_random(law, ctx22, trials=1000, seed=0)
            cex = report.counterexample
            if cex is not None:
                refuted += 1
                assert law.check(cex.context, cex.args) == cex.detail, law.id
        assert refuted >= 1

    def test_an_operation_that_is_not_bitwise_is_a_fail(self, monkeypatch, capsys):
        # F - G computed as F ^ (F & G & 1) is right one tuple at a time
        # at 1 x 1, where bit 0 is the only bit; in a chunk, bit 0 belongs
        # to the first tuple alone, and the other tuples get F - G = F
        monkeypatch.setattr(
            algebra, "difference", lambda s, t: SoftSet(s.context, s.bits ^ (s.bits & t.bits & 1))
        )
        ctx = frame(1, 1)
        law = lookup("difference-as-intersection")
        one = SoftSet(ctx, 1)
        for report in (check_exhaustive(law, ctx), check_random(law, ctx, 100, 0)):
            cex = report.counterexample
            assert "evaluations disagree" in cex.detail
            assert (cex.context, cex.args) == (ctx, (one, one))  # not shrunk
            assert law.check(ctx, cex.args) is None
        assert check_exhaustive(law, ctx).cases == 4
        from softsets.cli import main

        argv = ["check-laws", "--universe", "1", "--params", "1", "--law", law.id]
        assert main(argv) == 1
        assert main(argv + ["--exhaustive"]) == 1
        assert "evaluations disagree" in capsys.readouterr().out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Every expression node class that names an algebra function, found by
# walking the class tree, so that a new operation class is included.
OPERATION_NODES = sorted(
    {cls for cls in _subclasses(expr.Expr) if hasattr(cls, "function")}, key=lambda cls: cls.__name__
)


def test_the_walk_finds_the_four_operations():
    functions = {cls.function for cls in OPERATION_NODES}
    assert functions >= {"complement", "intersection", "union", "difference"}


@pytest.mark.parametrize("node_class", OPERATION_NODES, ids=lambda cls: cls.__name__)
def test_every_operation_node_reaches_its_own_algebra_function(node_class, monkeypatch, ctx22):
    name = node_class.function
    assert name in algebra.__all__
    calls = []
    original = getattr(algebra, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(algebra, name, recording)
    arg_names = ("F", "G")[: len(node_class.__match_args__)]
    node = node_class(*map(expr.Name, arg_names))
    args = tuple(SoftSet(ctx22, bits) for bits in (0b1001, 0b0110)[: len(arg_names)])
    assert expr.evaluate(node, dict(zip(arg_names, args)), ctx22) == original(*args)
    assert calls == [args]
    text = expr.render(node)
    law = formula_law("t", " ".join(arg_names), f"{text} = {text}")
    calls.clear()
    assert law.check(ctx22, args) is None and calls
    calls.clear()
    assert check_exhaustive(law, ctx22).passed and calls  # bit-sliced


# Texts far deeper than Python's own parser nests.
DEEP_TEXTS = {
    "chain": " & ".join(["F"] * 3000) + " = G",
    "complements": "F" + "^c" * 3000 + " = G",
    "hypotheses": " and ".join(["F <= F | G"] * 300) + " => F = G",
    "equivalence": " and ".join(["F <= F | G"] * 300) + " <=> F = G",
}


@pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS)
def test_deep_texts_check_shrink_and_replay(text):
    ctx = new_context(("x1", "x2"), ("e1",))
    law = formula_law("deep", "F G", text)
    assert law.check(ctx, (SoftSet(ctx, 1), SoftSet(ctx, 2))) is not None
    assert law.check(ctx, (SoftSet(ctx, 2), SoftSet(ctx, 2))) is None
    for report in (check_exhaustive(law, ctx), check_random(law, ctx, 100, 0)):
        cex = report.counterexample
        assert law.check(cex.context, cex.args) == cex.detail
    assert check_exhaustive(law, ctx).cases == _first_failure_by_scan(law, ctx) + 1


class TestCheckRandom:
    def test_catalog_passes_at_defaults(self, ctx33):
        for law, trials in itertools.product(law_catalog(), (1, 60, 65)):
            report = check_random(law, ctx33, trials=trials, seed=0)
            assert report.passed, (law.id, report.counterexample)
            assert report.cases == trials
            assert report.mode == "random"
            assert report.seed == 0

    def test_deterministic_for_a_fixed_seed(self, ctx33):
        law = lookup("distributive-2")
        assert check_random(law, ctx33, 80, seed=7) == check_random(law, ctx33, 80, seed=7)

    def test_trials_validation(self, ctx33):
        with pytest.raises(ValueError):
            check_random(lookup("bounds"), ctx33, trials=0, seed=0)

    def test_trials_must_be_an_integer(self, ctx33):
        report = check_random(lookup("bounds"), ctx33, trials=True, seed=0)
        assert report.cases == 1 and type(report.cases) is int
        for trials in (2.0, 1.5, "2", None):
            with pytest.raises(TypeError):
                check_random(lookup("bounds"), ctx33, trials=trials, seed=0)

    def test_failure_reports_the_first_bad_trial(self, ctx33):
        report = check_random(BROKEN_LAWS[0], ctx33, trials=1000, seed=0)
        assert not report.passed
        assert 1 <= report.cases <= 1000
        assert report.seed == 0


# Laws checked in random mode both bit-sliced and tuple by tuple.
RANDOM_LAWS = law_catalog() + BROKEN_LAWS


def _per_tuple(law):
    """A copy of the law whose check is not a FormulaCheck."""
    return replace(law, check=lambda c, args: law.check(c, args))


class TestSlicedRandomChecking:
    @pytest.mark.parametrize("law", RANDOM_LAWS, ids=lambda law: law.id)
    def test_agrees_with_the_per_tuple_loop(self, law):
        scalar = _per_tuple(law)
        for n_objects, n_params in [(1, 1), (3, 2), (3, 3), (6, 6)]:
            ctx = frame(n_objects, n_params)
            for seed in (0, 1, 7):
                report = check_random(law, ctx, 40, seed)
                assert report == check_random(scalar, ctx, 40, seed), (ctx, seed)

    @pytest.mark.parametrize("law", RANDOM_LAWS, ids=lambda law: law.id)
    def test_agrees_across_chunk_boundaries(self, law, monkeypatch):
        # 108 plane bits make chunks of 12, 6, 4 and 3 trials at 3 x 3 for
        # arities 1 to 4; trial counts fall on both sides of a boundary
        monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 108)
        ctx = frame(3, 3)
        per_chunk = 108 // (9 * law.arity)
        scalar = _per_tuple(law)
        for trials in (per_chunk - 1, per_chunk, per_chunk + 1, 10 * per_chunk + 1):
            for seed in (0, 3):
                report = check_random(law, ctx, trials, seed)
                assert report == check_random(scalar, ctx, trials, seed)

    @pytest.mark.parametrize("trials", [1, 50, 100])
    def test_a_failing_tuple_decodes_as_the_transposition_reads_it(self, trials, monkeypatch):
        # 108 plane bits make chunks of 12, 6 and 4 trials at 3 x 3, so
        # 50 and 100 trials take several chunks
        monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 108)
        ctx = frame(3, 3)
        for arity, seed in itertools.product((1, 2, 3), (0, 5)):
            for _, width, args in _random_chunks(ctx, 9, arity, trials, seed):
                for t in (0, width // 2, width - 1):
                    for chunk in args:
                        assert _trial(chunk, 9, width, t) == _nth(_transpose(chunk, 9, width), t)

    @pytest.mark.parametrize("n_objects, n_params", [(0, 0), (1, 1), (6, 6), (40, 40)])
    def test_transposed_tuples_are_plain_soft_sets(self, n_objects, n_params, monkeypatch):
        # the tuples are built without SoftSet.__init__; each equals the
        # soft set __init__ builds from its bits, which checks the range.
        # 2,000 plane bits split 20 trials at 6 x 6 into chunks
        monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 2_000)
        ctx = frame(n_objects, n_params)
        n = n_objects * n_params
        for arity, seed in itertools.product((1, 2), (0, 1, 7)):
            tuples = list(_transposed(ctx, n, _random_chunks(ctx, n, arity, 20, seed)))
            assert len(tuples) == 20
            for args in tuples:
                assert len(args) == arity
                for a in args:
                    assert type(a) is SoftSet
                    assert a.context is ctx
                    assert a == SoftSet(ctx, a.bits)

    def test_failures_past_the_first_chunk_are_found(self, monkeypatch):
        monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 108)
        law = BROKEN_LAWS[-1]  # difference monotone: the hypothesis is rare
        report = check_random(law, frame(3, 3), 1000, 1)
        assert report.cases > 3  # 3 trials per chunk at arity 4
        assert report == check_random(_per_tuple(law), frame(3, 3), 1000, 1)

    @pytest.mark.parametrize("sliced", [True, False], ids=["sliced", "per-tuple"])
    def test_chunk_memory_is_bounded_on_wide_frames(self, sliced):
        # one chunk of 20000 trials at 40 x 40 would hold 1600 planes of
        # 2.5 KB, several times over; the plane-bit cap keeps 1,310 trials
        # (2**21 // 1600) per chunk
        ctx = frame(40, 40)
        law = lookup("involution")
        if not sliced:
            law = _per_tuple(law)
        tracemalloc.start()
        try:
            report = check_random(law, ctx, 20_000 if sliced else 4_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4_000_000, peak


def _tuple_of(ctx, chunks, width, t):
    """Tuple ``t`` of a chunk, decoded bit by bit: bit j of argument i is
    bit j·width + t of its chunk."""
    n = len(ctx.objects) * len(ctx.parameters)
    return tuple(
        SoftSet(ctx, sum((chunk >> j * width + t & 1) << j for j in range(n))) for chunk in chunks
    )


def _plane_by_check(law, ctx, width, tuples):
    """The plane of the tuples that ``law.check`` refutes, bit t for tuple t."""
    plane = 0
    for t, args in enumerate(tuples):
        plane |= (law.check(ctx, args) is not None) << t
    assert t == width - 1
    return plane


# Laws with one relation that fails on a hand-built chunk where only the
# top block (j = n-1) of the last tuple (t = width-1) of G is set.
ONE_TUPLE_LAWS = (
    formula_law("equal", "F G", "F = G"),
    formula_law("subset", "F G", "G <= F"),
    formula_law("second-of-and", "F G", "F <= G and G <= F"),
    formula_law("conclusion", "F G", "F <= G => G = F"),
    formula_law("equivalence", "F G", "F & G = F <=> G <= F"),
)


class TestFailurePlane:
    """``FormulaCheck.failures`` against a plane built from the law's
    check of each tuple of the chunk alone."""

    @pytest.mark.parametrize("law", TEXT_LAWS, ids=lambda law: law.id)
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_exhaustive_chunks(self, law, shape):
        ctx = frame(*shape)
        n = len(ctx.objects) * len(ctx.parameters)
        # one chunk, in itertools.product order, holds every tuple
        ((start, width, chunks),) = _exhaustive_chunks(n, law.arity)
        assert start == 0 and width == soft_set_count(ctx) ** law.arity
        tuples = itertools.product(enumerate_soft_sets(ctx), repeat=law.arity)
        assert law.check.failures(chunks, n, width) == _plane_by_check(law, ctx, width, tuples)

    @pytest.mark.parametrize("law", TEXT_LAWS, ids=lambda law: law.id)
    @pytest.mark.parametrize("shape", [(3, 3), (6, 6)])
    def test_random_chunks(self, law, shape):
        ctx = frame(*shape)
        n = len(ctx.objects) * len(ctx.parameters)
        for seed in range(5):
            ((_, width, chunks),) = _random_chunks(ctx, n, law.arity, 50, seed)
            tuples = (_tuple_of(ctx, chunks, width, t) for t in range(width))
            expected = _plane_by_check(law, ctx, width, tuples)
            assert law.check.failures(chunks, n, width) == expected, seed

    @pytest.mark.parametrize("law", ONE_TUPLE_LAWS, ids=lambda law: law.id)
    @pytest.mark.parametrize(
        "shape, width",
        [((1, 1), 1), ((2, 1), 1), ((2, 3), 1), ((2, 3), 2), ((2, 3), 50),
         ((1, 1), 1 << CHUNK_BITS), ((2, 1), 1 << CHUNK_BITS)],
    )
    def test_one_relation_fails_at_the_last_tuple_in_the_top_block(self, law, shape, width):
        ctx = frame(*shape)
        n = len(ctx.objects) * len(ctx.parameters)
        chunks = [0, 1 << (n - 1) * width + width - 1]
        tuples = (_tuple_of(ctx, chunks, width, t) for t in range(width))
        plane = law.check.failures(chunks, n, width)
        assert plane == _plane_by_check(law, ctx, width, tuples) == 1 << width - 1

    @pytest.mark.parametrize("width", [1, 1 << CHUNK_BITS])
    def test_a_chunk_wider_than_its_frame_is_refused(self, width):
        # SoftSet's range check still guards the argument chunks
        check, n = lookup("commutative-1").check, 4
        full, over = (1 << n * width) - 1, 1 << n * width
        assert check.failures([full, 0], n, width) == 0
        for chunks in ([over, 0], [0, over], [full, over | full]):
            with pytest.raises(ValueError) as exc_info:
                check.failures(chunks, n, width)
            assert str(exc_info.value) == f"bits out of range for a context of {n * width} bits"


class TestDrawMemo:
    """Random checks that one chunk covers share their draws through
    ``laws._one_round``."""

    def test_memo_matches_a_cold_draw(self, monkeypatch):
        # 108 plane bits put the one-chunk limit at a few trials, so the
        # trial counts fall on both sides of it on every frame; one shuffled
        # run over all cases mixes arities, frames, seeds and trial counts
        monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 108)
        cases = []
        for shape, seed, law, offset in itertools.product(
            [(0, 0), (1, 1), (3, 2), (6, 6)], range(4), RANDOM_LAWS, (-1, 0, 1)
        ):
            per_chunk = max(1, 108 // max(1, shape[0] * shape[1] * law.arity))
            cases.append((law, frame(*shape), max(1, per_chunk + offset), seed))
        random.Random(0).shuffle(cases)
        arities = [law.arity for law, _, _, _ in cases]
        assert sum(a != b for a, b in zip(arities, arities[1:])) > len(cases) // 2
        laws._one_round.cache_clear()
        warm = [check_random(*case) for case in cases]
        assert laws._one_round.cache_info().hits > 0
        for case, report in zip(cases, warm):
            laws._one_round.cache_clear()
            assert check_random(*case) == report, case

    def test_patched_densities_draw_afresh(self, monkeypatch, ctx33):
        law = BROKEN_LAWS[0]  # difference commutes
        for density in (0.6, 1.0, 0.0, 0.6):
            monkeypatch.setattr(laws, "DEFINED_DENSITY", density)
            report = check_random(law, ctx33, 100, 0)
            laws._one_round.cache_clear()
            assert check_random(law, ctx33, 100, 0) == report, density

    def test_memo_keeps_draws_not_verdicts(self, monkeypatch, ctx22):
        for law in law_catalog():
            assert check_random(law, ctx22, trials=1000, seed=0).passed
        misses = laws._one_round.cache_info().misses
        for name, mutant in BITWISE_MUTANTS.items():
            with monkeypatch.context() as patch:
                patch.setattr(algebra, name, mutant)
                refuted = 0
                for law in law_catalog():
                    cex = check_random(law, ctx22, trials=1000, seed=0).counterexample
                    if cex is not None:
                        refuted += 1
                        assert law.check(cex.context, cex.args) == cex.detail, (name, law.id)
                assert refuted >= 1, name
        assert laws._one_round.cache_info().misses == misses  # every draw was memoized

    @pytest.mark.parametrize("sliced", [True, False], ids=["sliced", "per-tuple"])
    def test_checks_of_several_chunks_are_not_memoized(self, sliced):
        # the multi-chunk check of test_chunk_memory_is_bounded_on_wide_frames
        law = lookup("involution")
        if not sliced:
            law = _per_tuple(law)
        laws._one_round.cache_clear()
        assert check_random(law, frame(40, 40), 20_000 if sliced else 4_000, 0).passed
        assert laws._one_round.cache_info().currsize == 0

    def test_seeds_that_are_not_non_negative_ints_are_refused(self, ctx33, monkeypatch):
        # Random(-1) would draw what Random(1) draws; None would seed from
        # the system's entropy.  Each is refused before any draw.
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(laws, "_random_chunk", no_draw)
        laws._one_round.cache_clear()
        for seed, error in ((None, TypeError), ("0", TypeError), (1.0, TypeError), (-1, ValueError)):
            with pytest.raises(error):
                check_random(BROKEN_LAWS[0], ctx33, 100, seed)
            with pytest.raises(error):
                random_soft_set(ctx33, seed)
        assert laws._one_round.cache_info().currsize == 0

    def test_threads_get_the_sequential_reports(self, ctx33):
        # more threads than cores, each with its own seed, switching often:
        # the memo's four entries are evicted and refilled concurrently
        _assert_threads_get_the_sequential_reports(ctx33, (0, 1, 2, 3))

    def test_threads_on_one_stream_get_the_sequential_reports(self, ctx33):
        # four threads extend and read the same stream concurrently
        _assert_threads_get_the_sequential_reports(ctx33, (5, 5, 5, 5))

    @pytest.mark.parametrize("order", [(1, 2, 3, 4), (4, 3, 2, 1), (0, 4, 1, 3, 0, 2), (2, 1, 4, 2, 1, 4)])
    def test_every_arity_reads_a_prefix_of_one_stream(self, order):
        for shape, seed, trials in itertools.product([(0, 0), (1, 1), (4, 3), (6, 6)], (0, 9), (1, 50, 1000)):
            ctx = frame(*shape)
            laws._one_round.cache_clear()
            for arity in order:
                assert _memoized_draw(ctx, arity, trials, seed) == _stream_reference(ctx, trials, arity, seed)
            assert laws._one_round.cache_info().misses == 1, (shape, seed, trials)

    def test_trials_on_both_sides_of_each_one_chunk_bound(self, monkeypatch):
        # 108 plane bits make chunks of 12, 6, 4 and 3 trials at 3 x 3 for
        # arities 1 to 4: an arity past its bound draws afresh, and the
        # arities within theirs share one stream
        monkeypatch.setattr(laws, "RANDOM_CHUNK_PLANE_BITS", 108)
        ctx = frame(3, 3)
        for trials, seed in itertools.product((2, 3, 4, 5, 6, 7, 12, 13), (0, 5)):
            laws._one_round.cache_clear()
            for arity in (4, 1, 3, 2, 4):
                per_chunk = 108 // (9 * arity)
                rng = random.Random(seed)
                expected = [
                    (start, min(per_chunk, trials - start), _draw_chunks(ctx, min(per_chunk, trials - start), arity, rng))
                    for start in range(0, trials, per_chunk)
                ]
                assert list(_random_chunks(ctx, 9, arity, trials, seed)) == expected, (trials, arity)
                if trials <= per_chunk:
                    assert expected == [(0, trials, _stream_reference(ctx, trials, arity, seed))]
            assert laws._one_round.cache_info().currsize == int(trials <= 12), trials

    def test_frames_of_equal_sizes_share_one_stream(self):
        seen = []

        def record(c, args):
            seen.append(args)

        law = Law("record", 2, "records its tuples", record, ("F", "G"))
        frames = [frame(3, 2), new_context(("a", "b", "c"), ("p", "q"))]
        laws._one_round.cache_clear()
        reports = [check_random(law, ctx, 50, 0) for ctx in frames]
        sliced = [check_random(BROKEN_LAWS[0], ctx, 50, 0) for ctx in frames]
        assert laws._one_round.cache_info()[:2] == (3, 1)  # hits, misses
        assert reports[0].passed and reports[1].passed
        assert len(seen) == 100
        for ctx, tuples in zip(frames, (seen[:50], seen[50:])):
            assert all(a.context is ctx for args in tuples for a in args)
        assert [a.bits for args in seen[:50] for a in args] == [a.bits for args in seen[50:] for a in args]
        one, other = (report.counterexample for report in sliced)
        assert sliced[0].cases == sliced[1].cases
        assert [a.bits for a in one.args] == [a.bits for a in other.args]
        assert set(one.context.objects) <= set(frames[0].objects)
        assert set(other.context.objects) <= set(frames[1].objects)

    def test_the_default_catalog_draws_four_chunks(self, monkeypatch):
        # one stream at 4 x 3 and 1,000 trials: the first law of each new
        # arity draws one more chunk, where one draw per arity took 10
        calls = []

        def counted(*args):
            calls.append(args[1])
            return _random_chunk(*args)

        monkeypatch.setattr(laws, "_random_chunk", counted)
        laws._one_round.cache_clear()
        ctx = frame(4, 3)
        assert all(check_random(law, ctx, 1000, 0).passed for law in law_catalog())
        assert calls == [1000] * 4
        assert laws._one_round.cache_info().misses == 1

    @pytest.mark.parametrize("fail_at", [0, 1, 2])
    def test_an_interrupted_draw_leaves_no_stale_stream(self, fail_at, monkeypatch, ctx33):
        laws._one_round.cache_clear()
        assert _memoized_draw(ctx33, 1, 100, 0) == _stream_reference(ctx33, 100, 1, 0)
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == fail_at + 1:
                raise RuntimeError("interrupted")
            return _random_chunk(*args)

        monkeypatch.setattr(laws, "_random_chunk", flaky)
        with pytest.raises(RuntimeError):
            _memoized_draw(ctx33, 4, 100, 0)  # draws chunks 2 to 4
        for arity in (4, 1, 3, 2, 4):
            assert _memoized_draw(ctx33, arity, 100, 0) == _stream_reference(ctx33, 100, arity, 0)
        for law in RANDOM_LAWS:
            report = check_random(law, ctx33, 100, 0)
            laws._one_round.cache_clear()
            assert check_random(law, ctx33, 100, 0) == report, law.id

    def test_a_draw_begun_while_the_stream_is_extended_gets_the_reference(self, monkeypatch, ctx33):
        # a call that starts while another one extends the stream, as a
        # thread switch would let it, must not draw from that generator
        laws._one_round.cache_clear()
        nested = []

        def reentrant(*args):
            if not nested:
                nested.append(None)  # the nested call's own draws come here too
                nested.append(_memoized_draw(ctx33, 2, 100, 0))
            return _random_chunk(*args)

        monkeypatch.setattr(laws, "_random_chunk", reentrant)
        assert _memoized_draw(ctx33, 3, 100, 0) == _stream_reference(ctx33, 100, 3, 0)
        assert nested[1] == _stream_reference(ctx33, 100, 2, 0)
        for arity in (4, 1, 3, 2, 4):
            assert _memoized_draw(ctx33, arity, 100, 0) == _stream_reference(ctx33, 100, arity, 0)


def _draw_chunks(ctx, width, arity, rng):
    return tuple(_random_chunk(ctx, width, rng, laws.DEFINED_DENSITY, laws.MEMBER_DENSITY) for _ in range(arity))


def _stream_reference(ctx, trials, arity, seed):
    """The draw of a random check that one chunk covers: ``arity`` chunks
    of ``trials`` trials, in turn from one generator of the seed."""
    return _draw_chunks(ctx, trials, arity, random.Random(seed))


def _memoized_draw(ctx, arity, trials, seed):
    """The argument chunks of a random check that one chunk covers."""
    n = len(ctx.objects) * len(ctx.parameters)
    ((start, width, chunks),) = _random_chunks(ctx, n, arity, trials, seed)
    assert (start, width) == (0, trials)
    return chunks


def _assert_threads_get_the_sequential_reports(ctx, seeds):
    """Threads, one per seed of ``seeds``, switching often, each check
    every random law three times and get the reports of a sequential run."""

    def run(seed):
        return [check_random(law, ctx, 100, seed) for law in RANDOM_LAWS]

    expected = {seed: run(seed) for seed in seeds}
    laws._one_round.cache_clear()
    barrier = threading.Barrier(len(seeds))
    results = {}

    def worker(k, seed):
        barrier.wait()
        results[k] = [run(seed) for _ in range(3)]

    threads = [threading.Thread(target=worker, args=item) for item in enumerate(seeds)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, seed in enumerate(seeds):
        assert results[k] == [expected[seed]] * 3, seed


class TestConditionalLaws:
    def test_monotonicity_is_vacuous_without_the_hypothesis(self, ctx22):
        f1 = make(ctx22, e1="x1 x2")
        g1 = make(ctx22, e1="x1")  # f1 not below g1
        law = lookup("monotonicity-cap")
        assert not algebra.subset(f1, g1)
        assert law.check(ctx22, (f1, g1, f1, g1)) is None

    def test_characterization_forward_is_vacuous_off_complement_pairs(self, ctx22):
        f = make(ctx22, e1="x1")
        g = make(ctx22, e1="x1")  # g is not f's complement
        assert lookup("complement-characterization-fwd").check(ctx22, (f, g)) is None


class TestShrink:
    def _violating_args(self, law, ctx, trials=5000):
        import random as _random

        from softsets.laws import _random_soft_set

        rng = _random.Random(0)
        for _ in range(trials):
            args = tuple(
                _random_soft_set(ctx, rng, 0.6, 0.5) for _ in range(law.arity)
            )
            if law.check(ctx, args) is not None:
                return args
        raise AssertionError(f"no violation of {law.id} found in {trials} trials")

    def test_difference_commutes_shrinks_to_one_by_one(self, ctx33):
        broken = BROKEN_LAWS[0]
        args = self._violating_args(broken, ctx33)
        sctx, sargs = shrink(broken, ctx33, args)
        assert len(sctx.objects) == 1
        assert len(sctx.parameters) == 1
        assert broken.check(sctx, sargs) is not None

    def test_result_is_locally_minimal(self):
        # every failing tuple ends on one cell, and no reduction of the
        # greedy search shrinking used to make fails there
        failing = Counter()
        for law, shape in itertools.product(BROKEN_LAWS, SHRINK_FRAMES):
            rng = random.Random(f"{law.id} {shape}")
            ctx = frame(*shape)
            for _ in range(100):
                args = tuple(_random_soft_set(ctx, rng, 0.6, 0.5) for _ in range(law.arity))
                if law.check(ctx, args) is None:
                    continue
                failing[law.id] += 1
                sctx, sargs = shrink(law, ctx, args)
                where = (law.id, shape, args)
                assert (len(sctx.objects), len(sctx.parameters)) == (1, 1), where
                assert law.check(sctx, sargs) is not None, where
                for rctx, rargs in _reductions_by_masks(sctx, sargs):
                    assert law.check(rctx, rargs) is None, where
        assert set(failing) == {law.id for law in BROKEN_LAWS}

    def test_every_failing_tuple_of_a_text_law_ends_on_one_cell(self):
        rng = random.Random(27)
        failing = 0
        for _ in range(300):
            text, names = _random_law_text(rng)
            law = formula_law("random", " ".join(names), text)
            for shape in ((2, 2), (3, 2), (1, 3)):
                ctx = frame(*shape)
                for _ in range(5):
                    args = tuple(_random_soft_set(ctx, rng, 0.6, 0.5) for _ in names)
                    if law.check(ctx, args) is None:
                        continue
                    failing += 1
                    sctx, sargs = shrink(law, ctx, args)
                    assert (len(sctx.objects), len(sctx.parameters)) == (1, 1), (text, args)
                    assert law.check(sctx, sargs) is not None, (text, args)
        assert failing > 500  # the texts are not all true

    def test_a_check_no_single_cell_fails_keeps_its_frame(self, ctx33):
        from softsets.workspace import load_workspace

        def at_most_one_parameter(ctx, args):
            (f,) = args
            if len(f.domain()) < 2:
                return None
            return f"F defines {len(f.domain())} parameters"

        law = Law(
            "one-parameter", 1, "F defines at most one parameter", at_most_one_parameter, ("F",)
        )
        f = make(ctx33, e1="x1", e3="x2 x3")
        assert shrink(law, ctx33, (f,)) == (ctx33, (f,))
        ctx22 = frame(2, 2)
        reports = ((ctx22, check_exhaustive(law, ctx22)), (ctx33, check_random(law, ctx33, 50, 0)))
        for ctx, report in reports:
            cex = report.counterexample
            assert cex.context is ctx
            assert law.check(cex.context, cex.args) == cex.detail
            ws = load_workspace(cex.rendered)
            assert law.check(ws.context, tuple(ws.bindings.values())) == cex.detail

    def test_shrink_is_deterministic(self, ctx33):
        broken = BROKEN_LAWS[3]
        args = self._violating_args(broken, ctx33)
        assert shrink(broken, ctx33, args) == shrink(broken, ctx33, args)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (6, 6)])
    def test_cell_frames_are_the_validated_contexts(self, shape):
        # _cells builds each 1x1 frame without Context.__init__; each
        # equals, hashes, reprs and pickles as the validated one, and
        # builds its lookup maps on first read as that one does
        ctx = frame(*shape)
        cells = list(laws._cells(ctx, (SoftSet(ctx, ctx.full_bits),)))
        names = [(o, p) for p in reversed(ctx.parameters) for o in reversed(ctx.objects)]
        assert len(cells) == len(names)
        for (cell, (arg,)), (o, p) in zip(cells, names):
            ref = Context((o,), (p,))
            assert type(cell) is Context
            assert cell == ref and hash(cell) == hash(ref) and repr(cell) == repr(ref)
            assert (cell.full_mask, cell.full_bits) == (ref.full_mask, ref.full_bits) == (1, 1)
            for c in (cell, ref):
                assert not hasattr(c, "_object_bit") and not hasattr(c, "_parameter_offset")
            assert (cell.object_bit, cell.parameter_offset) == (ref.object_bit, ref.parameter_offset)
            assert cell._object_bit is cell.object_bit
            assert pickle.loads(pickle.dumps(cell)) == ref
            assert arg == SoftSet(ref, 1)

    def test_already_minimal_input_is_returned_unchanged(self):
        ctx = new_context(("x1",), ("e1",))
        broken = BROKEN_LAWS[0]
        f = make(ctx, e1="x1")
        g = soft_set(ctx, [])
        args = (g, f)  # F - G empty, G - F = {e1: x1}
        assert broken.check(ctx, args) is not None
        assert shrink(broken, ctx, args) == (ctx, args)


SHRINK_FRAMES = [(2, 2), (3, 3), (6, 6), (1, 4), (5, 1)]


def _random_law_text(rng: random.Random) -> tuple[str, list[str]]:
    """A seeded random law text over F, G and H, with one or two
    relations per side and an implication or equivalence in 60% of them,
    and its argument names in order of first appearance."""

    def expression(depth):
        roll = rng.random()
        if depth > 2 or roll < 0.35:
            return rng.choice(["F", "G", "H", "F", "G", "EMPTY", "UNIVERSAL"])
        if roll < 0.5:
            return f"({expression(depth + 1)})^c"
        op = rng.choice(["&", "|", "-"])
        return f"({expression(depth + 1)} {op} {expression(depth + 1)})"

    def conjunction():
        return " and ".join(
            f"{expression(0)} {rng.choice(['=', '<='])} {expression(0)}"
            for _ in range(rng.randint(1, 2))
        )

    while True:
        text = conjunction()
        if rng.random() < 0.6:
            text += f" {rng.choice(['=>', '<=>'])} {conjunction()}"
        names = list(dict.fromkeys(re.findall(r"\b[FGH]\b", text)))
        if names:
            return text, names


def _squeeze_bit(mask: int, k: int) -> int:
    """``mask`` with bit k taken out and the bits above it moved down."""
    low = mask & ((1 << k) - 1)
    return (mask >> (k + 1)) << k | low


def _reductions_by_masks(ctx, args):
    """The one-step reductions of the greedy search shrinking used to
    make, built from the arguments' mask tuples: drop a parameter, make
    one undefined in one argument, drop an object, or remove an object
    from an image that keeps another."""
    n_params, n_objects = len(ctx.parameters), len(ctx.objects)
    arg_masks = [a.masks for a in args]
    for j in range(n_params):
        smaller = new_context(ctx.objects, ctx.parameters[:j] + ctx.parameters[j + 1 :])
        yield smaller, tuple(
            SoftSet.from_masks(smaller, masks[:j] + masks[j + 1 :]) for masks in arg_masks
        )
    for i, masks in enumerate(arg_masks):
        for j in range(n_params):
            if masks[j]:
                reduced = masks[:j] + (0,) + masks[j + 1 :]
                yield ctx, args[:i] + (SoftSet.from_masks(ctx, reduced),) + args[i + 1 :]
    if n_objects > 1 or n_params == 0:
        for k in range(n_objects):
            smaller = new_context(ctx.objects[:k] + ctx.objects[k + 1 :], ctx.parameters)
            yield smaller, tuple(
                SoftSet.from_masks(smaller, (_squeeze_bit(m, k) for m in masks))
                for masks in arg_masks
            )
    for i, masks in enumerate(arg_masks):
        for j in range(n_params):
            m = masks[j]
            for k in range(n_objects):
                if m >> k & 1 and m != 1 << k:
                    reduced = masks[:j] + (m & ~(1 << k),) + masks[j + 1 :]
                    yield ctx, args[:i] + (SoftSet.from_masks(ctx, reduced),) + args[i + 1 :]


def _shrink_candidates_by_masks(ctx, args):
    """Reference for the candidates ``shrink`` tries when none fails:
    each single cell, parameters and then objects from last to first,
    built from the masks (none on a frame of at most one cell), then
    each nonempty argument made empty on the tuple's own frame."""
    if len(ctx.objects) * len(ctx.parameters) > 1:
        arg_masks = [a.masks for a in args]
        for j in reversed(range(len(ctx.parameters))):
            for k in reversed(range(len(ctx.objects))):
                cell = new_context((ctx.objects[k],), (ctx.parameters[j],))
                yield cell, tuple(
                    SoftSet.from_masks(cell, [masks[j] >> k & 1]) for masks in arg_masks
                )
    empty = SoftSet.from_masks(ctx, [0] * len(ctx.parameters))
    for i, a in enumerate(args):
        if a.masks != empty.masks:
            yield ctx, args[:i] + (empty,) + args[i + 1 :]


# Every frame up to 4 x 4; a frame with parameters needs objects.
REDUCTION_FRAMES = [(0, 0)] + list(itertools.product(range(1, 5), range(5)))


@pytest.mark.parametrize("n_objects, n_params", REDUCTION_FRAMES)
def test_reductions_on_bits_match_the_masks_based_ones(n_objects, n_params):
    # a check that fails only on the tuple it was given sees every
    # candidate shrink builds on the packed bits, in order
    ctx = frame(n_objects, n_params)
    rng = random.Random(1000 * n_objects + n_params)
    for _ in range(25):
        arity = rng.randint(0, 3)
        density = rng.choice([0.2, 0.5, 0.9, 1.0])
        args = tuple(_random_soft_set(ctx, rng, density, density) for _ in range(arity))
        tried = []

        def only_the_original(c, a):
            tried.append((c, a))
            return "the original" if c is ctx and a == args else None

        names = ("F", "G", "H")[:arity]
        law = Law("spy", arity, "fails on its own tuple", only_the_original, names)
        assert shrink(law, ctx, args) == (ctx, args)
        assert tried == list(_shrink_candidates_by_masks(ctx, args))
        for rctx, rargs in tried:
            assert all(type(a) is SoftSet and a.context is rctx for a in rargs)


def test_a_shrink_over_a_cut_frame_reloads():
    from softsets.workspace import Workspace, load_workspace, render_workspace

    broken = BROKEN_LAWS[0]  # difference commutes: shrinks to 1 x 1
    report = check_random(broken, frame(3, 3), 1000, 0)
    cex = report.counterexample
    assert len(cex.context.objects) == len(cex.context.parameters) == 1
    ws = Workspace(cex.context, dict(zip(broken.arg_names, cex.args)))
    reloaded = load_workspace(render_workspace(ws))
    assert reloaded == ws
    assert reloaded.context == cex.context
    assert broken.check(reloaded.context, tuple(reloaded.bindings.values())) is not None


# The rendered counterexample of every mutant, pinned from the dataclass
# version of SoftSet: faster values must not change a report by a byte.
# Eight random entries were pinned again when shrinking became a one-cell
# projection; every counterexample is 1x1, with the same case numbers.
PINNED_COUNTEREXAMPLES = json.loads(
    (Path(__file__).parent / "mutant_counterexamples.json").read_text(encoding="utf-8")
)


def _report_text(report) -> str:
    head = f"{report.mode}, {report.cases} cases"
    cex = report.counterexample
    if cex is None:
        return head + ", PASS\n"
    return f"{head}, FAIL\nviolation: {cex.detail}\n{cex.rendered}"



@pytest.mark.parametrize("law", BROKEN_LAWS, ids=lambda law: law.id)
def test_mutant_reports_match_the_pinned_text(law):
    pinned = PINNED_COUNTEREXAMPLES[law.id]
    assert _report_text(check_exhaustive(law, frame(2, 2))) == pinned["exhaustive 2x2"]
    for seed in range(1, 6):
        report = check_random(law, frame(6, 6), 50, seed)
        assert _report_text(report) == pinned[f"random 6x6 seed {seed}"], seed


class TestCounterexampleReplay:
    def test_rendered_counterexample_reloads_and_still_violates(self, ctx33):
        from softsets.workspace import load_workspace

        for broken in BROKEN_LAWS:
            report = check_random(broken, ctx33, trials=1000, seed=0)
            assert not report.passed, broken.id
            cex = report.counterexample
            ws = load_workspace(cex.rendered)
            replayed = tuple(ws.bindings[name] for name in broken.arg_names)
            assert ws.context == cex.context
            assert replayed == cex.args
            assert broken.check(ws.context, replayed) is not None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_catalog_holds_on_random_arguments(seed):
    """Property form of the whole catalog at |U|=3, |E|=3."""
    import random as _random

    from softsets.laws import _random_soft_set

    ctx = new_context(("x1", "x2", "x3"), ("e1", "e2", "e3"))
    rng = _random.Random(seed)
    for law in law_catalog():
        args = tuple(_random_soft_set(ctx, rng, 0.6, 0.5) for _ in range(law.arity))
        assert law.check(ctx, args) is None, law.id
