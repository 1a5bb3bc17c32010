"""Core value types: contexts, soft sets, constructors, accessors."""

import copy
import itertools
import operator
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _members,
    empty_soft_set,
    new_context,
    soft_set,
    strict_soft_set,
    universal_soft_set,
)
from softsets.workspace import render_soft_set

from .conftest import frame, make, random_sets


def _two_step_packer(ctx, pairs, *, strict):
    """Reference for ``soft_set`` and ``strict_soft_set``: one mask per
    parameter in a list, then packed by ``SoftSet.from_masks``."""
    parameter_index = {name: i for i, name in enumerate(ctx.parameters)}
    object_index = {name: k for k, name in enumerate(ctx.objects)}
    masks = [0] * len(ctx.parameters)
    seen = set()
    for parameter, objs in pairs:
        if parameter not in parameter_index:
            raise UnknownParameter(f"unknown parameter {parameter!r}")
        if parameter in seen:
            raise DuplicateParameter(f"parameter {parameter!r} listed twice")
        seen.add(parameter)
        m = 0
        for name in objs:
            if name not in object_index:
                raise UnknownObject(f"unknown object {name!r}")
            m |= 1 << object_index[name]
        if m == 0 and strict:
            raise EmptyImage(f"empty image for parameter {parameter!r}")
        masks[parameter_index[parameter]] = m
    return SoftSet.from_masks(ctx, masks)


def _outcome(build, ctx, pairs, **kwargs):
    """The soft set ``build`` returns, or the type and message of what
    it raises."""
    try:
        return build(ctx, pairs, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


class TestContext:
    def test_declaration_order_is_canonical(self):
        ctx = new_context(("b", "a"), ("q", "p"))
        assert ctx.objects == ("b", "a")
        assert ctx.parameters == ("q", "p")
        assert ctx.object_bit == {"b": 0b01, "a": 0b10}
        assert ctx.parameter_offset == {"q": 2, "p": 0}

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

    def test_a_bare_string_is_not_a_sequence_of_names(self):
        # tuple("h1") would make the frame of objects "h" and "1"
        for objects, parameters in (("h1", ("e1",)), (("h1",), "e1"), ("", ())):
            with pytest.raises(TypeError):
                new_context(objects, parameters)

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

    # Each entry point that reads an image, given that image.
    IMAGE_READERS = {
        "object_mask": lambda ctx, image: ctx.object_mask(image),
        "soft_set": lambda ctx, image: soft_set(ctx, [("p", image)]).bits,
        "strict_soft_set": lambda ctx, image: strict_soft_set(ctx, [("p", image)]).bits,
    }

    @pytest.mark.parametrize("reader", IMAGE_READERS.values(), ids=IMAGE_READERS)
    def test_an_image_is_names_not_one_string(self, reader):
        # A string is an iterable of one-character names: "ab" must not
        # be read as "a" and "b", nor "x1" fail on an unknown "x".
        ctx = new_context(("a", "b", "ab"), ("p",))
        for objects, image in ((ctx.objects, "ab"), (("x1", "x2"), "x1")):
            with pytest.raises(TypeError, match="not one string"):
                reader(new_context(objects, ("p",)), image)
        assert reader(ctx, ["ab"]) == 0b100
        assert reader(ctx, (name for name in ("a", "ab"))) == 0b101


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_constructors_match_the_two_step_packer(self, data):
        n_objects = data.draw(st.integers(0, 70), label="n_objects")
        n_params = data.draw(st.integers(0, 6 if n_objects else 0), label="n_params")
        ctx = frame(n_objects, n_params)
        parameter = st.sampled_from(ctx.parameters + ("nope",))
        obj = st.sampled_from(ctx.objects + ("nope",))
        pairs = data.draw(
            st.lists(st.tuples(parameter, st.lists(obj, max_size=8)), max_size=8),
            label="pairs",
        )
        for build, strict in ((soft_set, False), (strict_soft_set, True)):
            expected = _outcome(_two_step_packer, ctx, pairs, strict=strict)
            assert _outcome(build, ctx, pairs) == expected

    def test_mask_tuple_length_checked(self, ctx22):
        with pytest.raises(ValueError):
            SoftSet.from_masks(ctx22, (0,))

    def test_mask_range_checked(self, ctx22):
        with pytest.raises(ValueError):
            SoftSet.from_masks(ctx22, (0, 1 << 2))

    def test_bits_range_checked(self, ctx22):
        assert SoftSet(ctx22, ctx22.full_bits) == universal_soft_set(ctx22)
        message = "bits out of range for a context of 2 objects x 2 parameters"
        with pytest.raises(ValueError) as exc_info:
            SoftSet(ctx22, ctx22.full_bits + 1)
        assert str(exc_info.value) == message
        with pytest.raises(ValueError) as exc_info:
            SoftSet(ctx22, -1)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("bits", [1.0, 1.5, "1", None])
    def test_bits_must_be_an_integer(self, ctx22, bits):
        with pytest.raises(TypeError):
            SoftSet(ctx22, bits)

    def test_integer_bits_are_stored_as_a_plain_int(self, ctx22):
        class Bits(int):
            pass

        for bits in (True, Bits(5)):
            s = SoftSet(ctx22, bits)
            assert type(s.bits) is int and s.bits == bits


class TestValueSemantics:
    @pytest.mark.parametrize("name", ["bits", "context", "extra"])
    def test_attributes_cannot_be_assigned_or_deleted(self, ctx22, name):
        s = make(ctx22, e1="x1")
        with pytest.raises(FrozenInstanceError):
            setattr(s, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(s, name)
        assert s.bits == 0b01_00 and s.context is ctx22

    def test_instances_have_no_dict(self, ctx22):
        assert not hasattr(make(ctx22, e1="x1"), "__dict__")

    def test_equal_contexts_give_equal_soft_sets(self):
        ctx, twin = new_context(("x1", "x2"), ("e1",)), new_context(("x1", "x2"), ("e1",))
        assert ctx is not twin
        assert SoftSet(ctx, 0b10) == SoftSet(twin, 0b10)
        assert hash(SoftSet(ctx, 0b10)) == hash(SoftSet(twin, 0b10))
        assert SoftSet(ctx, 0b10) != SoftSet(twin, 0b01)
        assert SoftSet(ctx, 0b10) != SoftSet(new_context(("x1", "x2"), ("e2",)), 0b10)

    def test_never_equal_to_other_types(self, ctx22):
        s = make(ctx22, e1="x1")
        for other in ((ctx22, s.bits), (s.context, s.bits), s.bits, 0):
            assert s != other
            assert other != s
            assert not s == other
        assert s.__eq__((ctx22, s.bits)) is NotImplemented

    @pytest.mark.parametrize(
        "round_trip",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_round_trip(self, ctx33, round_trip):
        s = make(ctx33, e1="x1 x3", e3="x2")
        t = round_trip(s)
        assert type(t) is SoftSet
        assert t == s and hash(t) == hash(s)
        assert t.context == ctx33 and t.bits == s.bits
        assert repr(t) == repr(s)


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


SUGAR = {
    "__and__": "intersection",
    "__or__": "union",
    "__sub__": "difference",
    "__invert__": "complement",
    "__le__": "subset",
}


@pytest.mark.parametrize("method, function", SUGAR.items(), ids=list(SUGAR))
def test_operator_sugar_looks_the_operation_up_at_each_call(method, function, monkeypatch, ctx22):
    from softsets import algebra

    calls = []
    monkeypatch.setattr(algebra, function, lambda *args: calls.append(args) or "patched")
    s, t = make(ctx22, e1="x1"), make(ctx22, e2="x2")
    others = () if method == "__invert__" else (t,)
    assert getattr(s, method)(*others) == "patched"
    assert calls == [(s, *others)]


@pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.sub, operator.le])
@pytest.mark.parametrize(
    "other", [3, None, "x", new_context(("x1",), ("e1",))], ids=["int", "None", "str", "Context"]
)
def test_a_foreign_operand_raises_type_error_both_ways(op, other, ctx22):
    s = make(ctx22, e1="x1")
    with pytest.raises(TypeError):
        op(s, other)
    with pytest.raises(TypeError):
        op(other, s)


# Reference accessors: the formulas of the dataclass version of SoftSet,
# which unpacked every parameter and tested every object of each mask.


def _ref_masks(s):
    width = len(s.context.objects)
    full = (1 << width) - 1
    return tuple(s.bits >> width * i & full for i in reversed(range(len(s.context.parameters))))


def _ref_objects(ctx, mask):
    return frozenset(name for i, name in enumerate(ctx.objects) if mask >> i & 1)


def _ref_assignment(s):
    ctx = s.context
    return {name: _ref_objects(ctx, m) for name, m in zip(ctx.parameters, _ref_masks(s)) if m}


def _ref_repr(s):
    ctx = s.context
    parts = []
    for name, m in zip(ctx.parameters, _ref_masks(s)):
        if m:
            objs = " ".join(o for i, o in enumerate(ctx.objects) if m >> i & 1)
            parts.append(f"{name}: {objs}")
    return "SoftSet({" + "; ".join(parts) + "})"



FRAMES = [frame(0, 0), frame(3, 0), frame(1, 1), frame(6, 6), frame(100, 3)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FRAMES).flatmap(
        lambda ctx: st.builds(SoftSet, st.just(ctx), st.integers(0, ctx.full_bits))
    )
)
def test_accessors_match_the_reference_formulas(s):
    ctx = s.context
    assert s.masks == _ref_masks(s)
    assert s.assignment == _ref_assignment(s)
    assert list(s.assignment) == list(_ref_assignment(s))
    assert repr(s) == _ref_repr(s)
    assert s.domain() == frozenset(_ref_assignment(s))
    for name, m in zip(ctx.parameters, _ref_masks(s)):
        assert s.image(name) == (_ref_objects(ctx, m) if m else None)
    for m in _ref_masks(s):
        assert ctx.objects_of_mask(m) == _ref_objects(ctx, m)


# Universes at the boundaries of CPython's 30-bit int digits and of a
# 64-bit C long, where a mask changes its number of digits.
WIDTHS = [1, 29, 30, 31, 62, 63, 64, 65, 100]


def _or_loop_mask(ctx, names):
    """Reference for ``object_mask``: each name's bit ORed in, in order."""
    index = {name: k for k, name in enumerate(ctx.objects)}
    mask = 0
    for name in names:
        try:
            mask |= 1 << index[name]
        except KeyError:
            raise UnknownObject(f"unknown object {name!r}") from None
    return mask


def _bit_walk(names, mask):
    """Reference for ``_members``: the names whose bits are set, in order."""
    return [name for k, name in enumerate(names) if mask >> k & 1]


@pytest.mark.parametrize("width", WIDTHS)
def test_object_mask_matches_an_or_loop(width):
    ctx = frame(width, 0)
    rng = random.Random(width)
    draws = [[], ctx.objects[:1], ctx.objects[-1:], list(ctx.objects), ctx.objects * 2]
    for _ in range(200):
        size = rng.randrange(2 * width + 2)
        draws.append(rng.choices(ctx.objects, k=size))  # repeats likely
        draws.append(rng.sample(ctx.objects, min(size, width)))  # no repeats
    for names in draws:
        expected = _or_loop_mask(ctx, names)
        assert ctx.object_mask(names) == expected
        assert ctx.object_mask(tuple(names)) == expected
        assert ctx.object_mask(name for name in names) == expected


@pytest.mark.parametrize("width", WIDTHS)
def test_object_mask_names_the_first_unknown_object_as_an_or_loop_does(width):
    ctx = frame(width, 0)
    rng = random.Random(width)
    for _ in range(100):
        names = rng.choices(ctx.objects, k=rng.randrange(width + 1))
        for unknown in rng.sample(["z", "y", "", "x0"], rng.randrange(1, 3)):
            names.insert(rng.randrange(len(names) + 1), unknown)
        with pytest.raises(UnknownObject) as exc_info:
            _or_loop_mask(ctx, names)
        expected = str(exc_info.value)
        for given_names in (names, tuple(names), iter(names)):
            with pytest.raises(UnknownObject) as exc_info:
                ctx.object_mask(given_names)
            assert str(exc_info.value) == expected


@pytest.mark.parametrize(
    "names, error",
    [
        ([["x1"]], TypeError),
        (["x1", ["x1"]], TypeError),
        ([["x1"], "z"], TypeError),
        (["z", ["x1"]], UnknownObject),
    ],
    ids=["alone", "after-a-known-name", "before-an-unknown-name", "after-an-unknown-name"],
)
def test_an_unhashable_name_raises_type_error_where_an_or_loop_does(names, error):
    ctx = frame(3, 0)
    with pytest.raises(error):
        _or_loop_mask(ctx, names)
    with pytest.raises(error):
        ctx.object_mask(names)


@pytest.mark.parametrize("width", WIDTHS)
def test_members_and_rendering_match_a_bit_walk(width):
    ctx = frame(width, 3)
    full = ctx.full_mask
    rng = random.Random(width)
    masks = [0, full, 1, 1 << width - 1, full ^ 1, full >> 1]
    masks += [rng.getrandbits(width) for _ in range(100)]
    for m in masks:
        walk = _bit_walk(ctx.objects, m)
        assert _members(ctx.objects, m) == walk
        assert ctx.objects_of_mask(m) == frozenset(walk)
    for triple in zip(masks, masks[1:] + masks[:1], masks[2:] + masks[:2]):
        s = SoftSet.from_masks(ctx, triple)
        expected = "".join(
            f"{name}: {' '.join(_bit_walk(ctx.objects, m))}\n"
            for name, m in zip(ctx.parameters, triple)
            if m
        )
        assert render_soft_set(s) == expected
