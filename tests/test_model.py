"""Core value types: contexts, soft sets, constructors, accessors."""

import itertools

import pytest

from softsets.errors import (
    BadIdentifier,
    DuplicateIdentifier,
    DuplicateParameter,
    EmptyImage,
    EmptyUniverse,
    UnknownObject,
    UnknownParameter,
)
from softsets.laws import enumerate_soft_sets
from softsets.model import (
    SoftSet,
    domain,
    empty_soft_set,
    image,
    is_empty,
    is_universal,
    new_context,
    soft_set,
    strict_soft_set,
    universal_soft_set,
)

from .conftest import make, random_sets


class TestContext:
    def test_declaration_order_is_canonical(self):
        ctx = new_context(("b", "a"), ("q", "p"))
        assert ctx.objects == ("b", "a")
        assert ctx.parameters == ("q", "p")
        assert ctx.object_index == {"b": 0, "a": 1}
        assert ctx.parameter_index == {"q": 0, "p": 1}

    def test_equal_contexts_are_interchangeable(self):
        assert new_context(("a",), ("p",)) == new_context(("a",), ("p",))
        assert new_context(("a",), ("p",)) != new_context(("a",), ("q",))

    def test_duplicate_object_rejected(self):
        with pytest.raises(DuplicateIdentifier):
            new_context(("a", "a"), ("p",))

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(DuplicateIdentifier):
            new_context(("a",), ("p", "p"))

    @pytest.mark.parametrize("bad", ["", None, 3])
    def test_bad_identifier_rejected(self, bad):
        with pytest.raises(BadIdentifier):
            new_context((bad,), ())

    def test_parameters_need_a_universe(self):
        # no parameter can have a nonempty image over an empty universe
        with pytest.raises(EmptyUniverse):
            new_context((), ("p",))

    def test_fully_empty_context_is_legal(self):
        ctx = new_context((), ())
        assert ctx.full_mask == 0

    def test_objects_without_parameters_is_legal(self):
        ctx = new_context(("a", "b"), ())
        assert empty_soft_set(ctx) == universal_soft_set(ctx)

    def test_object_mask_round_trip(self):
        ctx = new_context(("a", "b", "c"), ())
        mask = ctx.object_mask(["c", "a"])
        assert mask == 0b101
        assert ctx.objects_of_mask(mask) == {"a", "c"}

    def test_object_mask_unknown_object(self):
        ctx = new_context(("a",), ())
        with pytest.raises(UnknownObject):
            ctx.object_mask(["z"])


class TestConstruction:
    def test_images_and_domain(self, ctx22):
        s = make(ctx22, e1="x1 x2", e2="x2")
        assert s.domain() == {"e1", "e2"}
        assert s.image("e1") == {"x1", "x2"}
        assert s.image("e2") == {"x2"}

    def test_pair_order_is_irrelevant(self, ctx22):
        a = soft_set(ctx22, [("e2", ["x1"]), ("e1", ["x2"])])
        b = soft_set(ctx22, [("e1", ["x2"]), ("e2", ["x1"])])
        assert a == b

    def test_empty_images_are_dropped(self, ctx22):
        s = soft_set(ctx22, [("e1", []), ("e2", ["x1"])])
        assert s.domain() == {"e2"}
        assert s.image("e1") is None

    def test_strict_constructor_rejects_empty_image(self, ctx22):
        with pytest.raises(EmptyImage):
            strict_soft_set(ctx22, [("e1", [])])

    def test_unknown_parameter(self, ctx22):
        with pytest.raises(UnknownParameter):
            soft_set(ctx22, [("nope", ["x1"])])

    def test_unknown_object(self, ctx22):
        with pytest.raises(UnknownObject):
            soft_set(ctx22, [("e1", ["nope"])])

    def test_duplicate_parameter_in_pairs(self, ctx22):
        with pytest.raises(DuplicateParameter):
            soft_set(ctx22, [("e1", ["x1"]), ("e1", ["x2"])])

    def test_duplicate_empty_pair_still_counts(self, ctx22):
        # duplicates are detected before normalization drops the pair
        with pytest.raises(DuplicateParameter):
            soft_set(ctx22, [("e1", []), ("e1", ["x1"])])

    def test_mask_tuple_length_checked(self, ctx22):
        with pytest.raises(ValueError):
            SoftSet.from_masks(ctx22, (0,))

    def test_mask_range_checked(self, ctx22):
        with pytest.raises(ValueError):
            SoftSet.from_masks(ctx22, (0, 1 << 2))

    def test_bits_range_checked(self, ctx22):
        assert SoftSet(ctx22, ctx22.full_bits) == universal_soft_set(ctx22)
        with pytest.raises(ValueError):
            SoftSet(ctx22, ctx22.full_bits + 1)
        with pytest.raises(ValueError):
            SoftSet(ctx22, -1)


class TestPackedLayout:
    def test_first_parameter_sits_in_the_highest_bits(self, ctx32):
        s = SoftSet.from_masks(ctx32, (0b011, 0b100))
        assert s.bits == 0b011_100
        assert s.masks == (0b011, 0b100)
        assert s.image("e1") == {"x1", "x2"}
        assert s.image("e2") == {"x3"}

    def test_from_masks_inverts_masks(self, ctx66):
        for s in random_sets(ctx66, 200, seed=3):
            assert SoftSet.from_masks(ctx66, s.masks) == s

    @pytest.mark.parametrize("n_objects, n_params", [(2, 2), (3, 2)])
    def test_enumeration_follows_the_mask_tuple_order(self, n_objects, n_params):
        ctx = new_context(
            tuple(f"x{i}" for i in range(n_objects)), tuple(f"e{i}" for i in range(n_params))
        )
        expected = itertools.product(range(1 << n_objects), repeat=n_params)
        assert [s.masks for s in enumerate_soft_sets(ctx)] == list(expected)


class TestAccessors:
    def test_image_of_undefined_parameter_is_none(self, ctx22):
        s = make(ctx22, e1="x1")
        assert s.image("e2") is None

    def test_image_of_unknown_parameter_raises(self, ctx22):
        s = make(ctx22, e1="x1")
        with pytest.raises(UnknownParameter):
            s.image("e9")

    def test_empty_and_universal(self, ctx22):
        assert empty_soft_set(ctx22).is_empty()
        assert not empty_soft_set(ctx22).is_universal()
        assert universal_soft_set(ctx22).is_universal()
        assert not universal_soft_set(ctx22).is_empty()
        assert empty_soft_set(ctx22).domain() == frozenset()
        assert universal_soft_set(ctx22).domain() == {"e1", "e2"}

    def test_free_functions_mirror_methods(self, ctx22):
        s = make(ctx22, e1="x1")
        assert domain(s) == s.domain()
        assert image(s, "e1") == s.image("e1")
        assert is_empty(s) == s.is_empty()
        assert is_universal(s) == s.is_universal()

    def test_assignment_iterates_in_context_order(self, ctx33):
        s = soft_set(ctx33, [("e3", ["x1"]), ("e1", ["x2"])])
        assert list(s.assignment) == ["e1", "e3"]

    def test_repr_shows_the_assignment(self, ctx22):
        s = make(ctx22, e2="x1 x2")
        assert repr(s) == "SoftSet({e2: x1 x2})"


def test_operator_sugar(ctx22):
    from softsets import algebra

    s = make(ctx22, e1="x1")
    t = make(ctx22, e1="x2", e2="x1")
    assert s & t == algebra.intersection(s, t)
    assert s | t == algebra.union(s, t)
    assert s - t == algebra.difference(s, t)
    assert ~s == algebra.complement(s)
    assert (s <= t) == algebra.subset(s, t)
    assert (s <= s | t) is True
