"""The four operations and the subset relation.

Each operation is checked two ways: against the recorded results of the
bundled houses example, and against a test-local recomputation working
directly on images (independent of both the packed encoding and the
matrix cross-check module).
"""

import copy
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softsets
from softsets import algebra
from softsets.errors import ContextMismatch
from softsets.houses import (
    PUBLISHED_DIFFERENCE_E2,
    houses_workspace,
    recorded_soft_set,
)
from softsets.laws import _ChunkFrame, enumerate_soft_sets
from softsets.model import (
    SoftSet,
    empty_soft_set,
    new_context,
    soft_set,
    universal_soft_set,
)

from .conftest import HOUSES_RENDERED, all_pairs, frame, make


# Image-level recomputations, straight from the definitions.

def intersection_by_images(a, b):
    ctx = a.context
    pairs = []
    for e in a.domain() & b.domain():
        img = a.image(e) & b.image(e)
        if img:
            pairs.append((e, img))
    return soft_set(ctx, pairs)


def union_by_images(a, b):
    ctx = a.context
    pairs = []
    for e in a.domain() | b.domain():
        left, right = a.image(e), b.image(e)
        if left is None:
            pairs.append((e, right))
        elif right is None:
            pairs.append((e, left))
        else:
            pairs.append((e, left | right))
    return soft_set(ctx, pairs)


def complement_by_images(a):
    ctx = a.context
    universe = frozenset(ctx.objects)
    pairs = []
    for e in ctx.parameters:
        img = a.image(e)
        rest = universe if img is None else universe - img
        if rest:
            pairs.append((e, rest))
    return soft_set(ctx, pairs)


def difference_by_images(a, b):
    ctx = a.context
    pairs = []
    for e in a.domain():
        other = b.image(e)
        img = a.image(e) if other is None else a.image(e) - other
        if img:
            pairs.append((e, img))
    return soft_set(ctx, pairs)


def subset_by_images(a, b):
    if not a.domain() <= b.domain():
        return False
    return all(a.image(e) <= b.image(e) for e in a.domain())


def _houses_result(name: str) -> "tuple[SoftSet, SoftSet]":
    """The named algebra function applied to the bundled F (and G), and
    the recorded result, read back from its rendering."""
    ws = houses_workspace()
    f, g = ws.bindings["F"], ws.bindings["G"]
    args = (f,) if name == "complement" else (f, g)
    recorded = recorded_soft_set(ws.context, HOUSES_RENDERED[name])
    return getattr(algebra, name)(*args), recorded


class TestHousesData:
    """The worked five-houses example, against its recorded results."""

    def test_intersection(self):
        computed, recorded = _houses_result("intersection")
        assert computed == recorded

    def test_union(self):
        computed, recorded = _houses_result("union")
        assert computed == recorded

    def test_complement(self):
        computed, recorded = _houses_result("complement")
        assert computed == recorded

    def test_difference(self):
        computed, recorded = _houses_result("difference")
        assert computed == recorded

    def test_difference_at_e2_keeps_all_three_objects(self):
        # the published worked example prints {h2} here; removing {h4}
        # from {h2, h3, h5} cannot shrink it
        result, _ = _houses_result("difference")
        assert result.image("e2") == {"h2", "h3", "h5"}
        assert result.image("e2") != PUBLISHED_DIFFERENCE_E2

    def test_subset_facts(self):
        ws = houses_workspace()
        f, g = ws.bindings["F"], ws.bindings["G"]
        assert algebra.subset(algebra.intersection(f, g), f)
        assert algebra.subset(f, algebra.union(f, g))
        assert not algebra.subset(f, g)


class TestAgainstImageRecomputation:
    def test_binary_operations_on_all_small_pairs(self, ctx22):
        for a, b in all_pairs(ctx22):
            assert algebra.intersection(a, b) == intersection_by_images(a, b)
            assert algebra.union(a, b) == union_by_images(a, b)
            assert algebra.difference(a, b) == difference_by_images(a, b)
            assert algebra.subset(a, b) == subset_by_images(a, b)

    def test_complement_on_all_small_sets(self, ctx32):
        for a in enumerate_soft_sets(ctx32):
            assert algebra.complement(a) == complement_by_images(a)

    def test_subset_on_wider_universe(self, ctx32):
        for a, b in all_pairs(ctx32):
            assert algebra.subset(a, b) == subset_by_images(a, b)


class TestDomains:
    def test_intersection_drops_emptied_parameters(self, ctx22):
        a = make(ctx22, e1="x1", e2="x1 x2")
        b = make(ctx22, e1="x2", e2="x2")
        r = algebra.intersection(a, b)
        assert r.domain() == {"e2"}
        assert r.image("e2") == {"x2"}

    def test_union_covers_both_domains(self, ctx22):
        a = make(ctx22, e1="x1")
        b = make(ctx22, e2="x2")
        r = algebra.union(a, b)
        assert r.domain() == {"e1", "e2"}
        assert r.image("e1") == {"x1"}
        assert r.image("e2") == {"x2"}

    def test_complement_excludes_full_images(self, ctx22):
        a = make(ctx22, e1="x1 x2", e2="x1")
        r = algebra.complement(a)
        assert r.domain() == {"e2"}
        assert r.image("e2") == {"x2"}

    def test_complement_defines_undefined_parameters(self, ctx22):
        r = algebra.complement(make(ctx22, e1="x1"))
        assert r.image("e2") == {"x1", "x2"}

    def test_difference_stays_within_left_domain(self, ctx22):
        a = make(ctx22, e1="x1 x2")
        b = make(ctx22, e1="x1", e2="x2")
        r = algebra.difference(a, b)
        assert r.domain() == {"e1"}
        assert r.image("e1") == {"x2"}

    def test_difference_keeps_left_image_where_right_undefined(self, ctx22):
        a = make(ctx22, e1="x1", e2="x2")
        b = make(ctx22, e1="x1")
        r = algebra.difference(a, b)
        assert r.domain() == {"e2"}


class TestEqualityAndSubset:
    def test_equality_is_mutual_subset(self, ctx22):
        # two routes to the same relation, compared on every pair
        for a, b in all_pairs(ctx22):
            both_ways = algebra.subset(a, b) and algebra.subset(b, a)
            assert algebra.equals(a, b) == both_ways == (a == b)

    def test_empty_is_least_universal_is_greatest(self, ctx22):
        for s in enumerate_soft_sets(ctx22):
            assert algebra.subset(empty_soft_set(ctx22), s)
            assert algebra.subset(s, universal_soft_set(ctx22))


class TestContextHandling:
    def test_mixed_contexts_are_rejected(self):
        a = make(new_context(("x1",), ("e1",)), e1="x1")
        b = make(new_context(("x1", "x2"), ("e1",)), e1="x1")
        for op in (
            algebra.intersection,
            algebra.union,
            algebra.difference,
            algebra.subset,
            algebra.equals,
        ):
            with pytest.raises(ContextMismatch):
                op(a, b)

    @pytest.mark.parametrize(
        "op",
        [
            algebra.intersection,
            algebra.union,
            algebra.difference,
            algebra.subset,
            algebra.equals,
        ],
        ids=lambda op: op.__name__,
    )
    def test_contexts_are_compared_by_value(self, op):
        # distinct but equal context objects are the same frame; unequal
        # ones are refused even when identity does not decide
        ctx = new_context(("x1", "x2"), ("e1", "e2"))
        twin = new_context(("x1", "x2"), ("e1", "e2"))
        other = new_context(("x1", "x2"), ("e1", "e3"))
        a = make(ctx, e1="x1 x2", e2="x2")
        b = make(ctx, e1="x2")
        assert op(a, make(twin, e1="x2")) == op(a, b)
        assert op(make(twin, e1="x1 x2", e2="x2"), b) == op(a, b)
        for left, right in ((a, make(other, e1="x2")), (make(other, e1="x1"), b)):
            with pytest.raises(ContextMismatch):
                op(left, right)

    def test_empty_context_operations(self):
        ctx = new_context((), ())
        e = empty_soft_set(ctx)
        assert algebra.union(e, e) == e
        assert algebra.intersection(e, e) == e
        assert algebra.complement(e) == e
        assert algebra.difference(e, e) == e
        assert algebra.subset(e, e)
        assert e.is_empty() and e.is_universal()

    def test_wide_universe_operations_work_end_to_end(self):
        # 70 objects: wider than a machine word, with no special path
        objects = tuple(f"x{i}" for i in range(1, 71))
        ctx = new_context(objects, ("e1", "e2"))
        u = universal_soft_set(ctx)
        assert algebra.complement(u).is_empty()
        assert algebra.intersection(u, u) == u
        assert algebra.union(u, algebra.complement(u)) == u

    def test_single_object_universe(self):
        ctx = new_context(("only",), ("e1",))
        u = universal_soft_set(ctx)
        assert algebra.complement(u).is_empty()
        assert algebra.complement(empty_soft_set(ctx)) == u


def test_operations_never_produce_empty_images(ctx33):
    # normalization is baked into the encoding: mask 0 is "undefined"
    sets = list(enumerate_soft_sets(ctx33, cap=10**6))[:64]
    for a, b in itertools.product(sets[:16], repeat=2):
        for result in (
            algebra.intersection(a, b),
            algebra.union(a, b),
            algebra.difference(a, b),
            algebra.complement(a),
        ):
            for e in result.domain():
                assert result.image(e)


def as_index_sets(s):
    return [frozenset(k for k in range(len(s.context.objects)) if m >> k & 1) for m in s.masks]


def test_operations_match_index_set_arithmetic():
    # a third route: the same operations done on sets of object positions,
    # one parameter at a time
    rng = random.Random(99)
    ctx = new_context(tuple(f"x{i}" for i in range(1, 10)), ("e1", "e2", "e3", "e4"))
    universe = frozenset(range(9))
    for _ in range(300):
        a, b = (
            SoftSet.from_masks(ctx, [rng.randint(0, ctx.full_mask) for _ in range(4)])
            for _ in range(2)
        )
        sa, sb = as_index_sets(a), as_index_sets(b)
        assert as_index_sets(algebra.intersection(a, b)) == [x & y for x, y in zip(sa, sb)]
        assert as_index_sets(algebra.union(a, b)) == [x | y for x, y in zip(sa, sb)]
        assert as_index_sets(algebra.difference(a, b)) == [x - y for x, y in zip(sa, sb)]
        assert as_index_sets(algebra.complement(a)) == [universe - x for x in sa]
        assert algebra.subset(a, b) == all(x <= y for x, y in zip(sa, sb))


# The results skip SoftSet.__init__: each operation with the bits it
# must produce from the operands' bits, within full_bits.
RESULTS = {
    "intersection": (algebra.intersection, lambda full, a, b: a & b),
    "union": (algebra.union, lambda full, a, b: a | b),
    "difference": (algebra.difference, lambda full, a, b: a & ~b),
    "complement": (lambda s, t: algebra.complement(s), lambda full, a, b: full ^ a),
}


@st.composite
def frames(draw):
    """A frame of up to 70 objects, or a chunk frame of up to 64 tuples
    of soft sets of up to 12 bits, as law checking builds them."""
    if draw(st.booleans()):
        return _ChunkFrame((1 << draw(st.integers(0, 12)) * draw(st.integers(1, 64))) - 1)
    n_objects = draw(st.integers(0, 70))
    return frame(n_objects, draw(st.integers(0, 3)) if n_objects else 0)


def _other_frame(ctx):
    if isinstance(ctx, _ChunkFrame):
        return _ChunkFrame(ctx.full_bits << 1 | 1)
    return frame(len(ctx.objects) + 1, len(ctx.parameters))


@pytest.mark.parametrize("name", RESULTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_results_built_without_the_constructor_are_soft_sets(name, data):
    op, expected_bits = RESULTS[name]
    ctx = data.draw(frames())
    a, b = (data.draw(st.integers(0, ctx.full_bits)) for _ in range(2))
    r = op(SoftSet(ctx, a), SoftSet(ctx, b))
    expected = SoftSet(ctx, expected_bits(ctx.full_bits, a, b))
    assert type(r) is SoftSet
    assert r == expected and r.bits == expected.bits and r.context is ctx
    for attribute in ("context", "bits"):
        with pytest.raises(FrozenInstanceError):
            setattr(r, attribute, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(r, attribute)
    assert r.bits == expected.bits and r.context is ctx
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is SoftSet and twin == r
        assert hash(twin) == hash(r)
    assert hash(r) == hash(expected) == hash((ctx, expected.bits))
    if name != "complement":
        other = _other_frame(ctx)
        with pytest.raises(ContextMismatch):
            op(SoftSet(ctx, a), SoftSet(other, 0))
        with pytest.raises(ContextMismatch):
            op(SoftSet(other, 0), SoftSet(ctx, b))


def test_softsets_reports_pure():
    assert softsets.backend_name() == "pure"
