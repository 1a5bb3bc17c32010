"""Core value types: finite contexts and the soft sets defined over them.

A context fixes an ordered universe of objects and an ordered parameter
space.  A soft set assigns a nonempty subset of the universe to some of
the parameters; parameters outside that domain are *undefined* (never
mapped to the empty set).

Internally a soft set is one integer of |U|·|E| bits: one |U|-bit mask
per parameter, parameter i at bit offset |U|·(|E|-1-i), so the first
parameter sits in the highest bits.  Bit k of a mask stands for the k-th
object of the universe, and mask 0 encodes "undefined", unambiguous
precisely because images are never empty.  Each operation of the
algebra is then a single integer operation on the packed bits, and
counting the integers 0, 1, ... enumerates soft sets in the order of the
per-parameter mask tuples (last parameter fastest).  Rendering reads
each image straight from the packed bits, shifted down by its
parameter's offset; shrinking restricts a tuple to one cell by reading
one bit of each argument.  Shrink candidates and the tuples law
checking transposes from its chunks cannot leave [0, full_bits], so
they skip the range check of ``SoftSet.__init__``, as the algebra's
results do (:func:`_bare_soft_set`).

A context keeps one lookup map per axis for this layout: ``object_bit``
(each object's bit in a mask) and ``parameter_offset`` (each
parameter's offset in the packed integer).  :func:`soft_set`,
:func:`strict_soft_set` and the workspace loader build a soft set by
OR-ing each image's mask into one integer at its parameter's offset.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import compress

from .errors import (
    BadIdentifier,
    DuplicateIdentifier,
    DuplicateParameter,
    EmptyImage,
    EmptyUniverse,
    UnknownObject,
    UnknownParameter,
)

__all__ = [
    "Context",
    "SoftSet",
    "new_context",
    "soft_set",
    "strict_soft_set",
    "empty_soft_set",
    "universal_soft_set",
]


def _check_identifiers(kind: str, names: tuple[str, ...]) -> None:
    seen = set()
    for name in names:
        if not isinstance(name, str) or name == "":
            raise BadIdentifier(f"{kind} identifier must be a nonempty string, got {name!r}")
        if name in seen:
            raise DuplicateIdentifier(f"duplicate {kind} identifier {name!r}")
        seen.add(name)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(names: tuple[str, ...], mask: int) -> list[str]:
    """The names whose bits are set in ``mask``, in order: ``names``
    compressed by the binary digits of ``mask``, lowest first, as bytes
    0 and 1 (``_BITS``)."""
    return list(compress(names, bin(mask)[:1:-1].encode().translate(_BITS)))


class _Frozen:
    """Base of the package's hand-written value classes (``SoftSet``,
    ``Context``, ``Workspace``, and the expression tokens and nodes).

    Each subclass lists its fields in ``__slots__`` and
    ``__match_args__``, and sets them once, in ``__init__``, through the
    slots' own setters bound at module level; any later assignment or
    deletion raises ``FrozenInstanceError``, as a frozen dataclass does.
    The exception is imported when raised, which keeps ``dataclasses``
    out of the import of ``softsets.cli``.

    Equality, hashing, the dataclass-form ``repr`` and pickling (and so
    copying) all read the fields that ``__match_args__`` lists: values
    of the same class are equal when their fields are, and they pickle
    by calling the class again with their fields.  A subclass may
    override any of these, as the expression nodes do for deep trees."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Context(_Frozen):
    """Shared frame for soft sets: an ordered universe of objects plus an
    ordered parameter space.  Declaration order is the canonical order used
    by every rendering.  Immutable; equal contexts are interchangeable.

    Duplicate and empty identifier strings are rejected, and so is a bare
    string for either sequence, which would split into one-character
    names.  A fully empty context is legal; a context with parameters but
    no objects is not.

    ``full_mask`` (bitmask of the whole universe) and ``full_bits``
    (packed bits of the universal soft set: every mask full) are
    computed once, on construction, since every soft set built over the
    context reads ``full_bits``.  The lookup maps ``object_bit`` and
    ``parameter_offset`` are built on first read, as many contexts
    (the one-cell frames shrinking tries) never need them.
    """

    __slots__ = ("objects", "parameters", "full_mask", "full_bits", "_object_bit", "_parameter_offset")
    __match_args__ = ("objects", "parameters")

    objects: tuple[str, ...]
    parameters: tuple[str, ...]
    full_mask: int
    full_bits: int

    def __init__(self, objects: Sequence[str], parameters: Sequence[str]):
        if isinstance(objects, str) or isinstance(parameters, str):
            raise TypeError("objects and parameters are sequences of names, not one string")
        objects, parameters = tuple(objects), tuple(parameters)
        _check_identifiers("object", objects)
        _check_identifiers("parameter", parameters)
        if parameters and not objects:
            raise EmptyUniverse(
                "a context with parameters needs a nonempty universe: "
                "no parameter can have a nonempty image over an empty universe"
            )
        width = len(objects)
        _set_objects(self, objects)
        _set_parameters(self, parameters)
        _set_full_mask(self, (1 << width) - 1)
        _set_full_bits(self, (1 << width * len(parameters)) - 1)

    @property
    def object_bit(self) -> dict[str, int]:
        """Each object's bit in a mask: bit k for the k-th object."""
        try:
            return self._object_bit
        except AttributeError:
            bit = {obj: 1 << k for k, obj in enumerate(self.objects)}
            _set_object_bit(self, bit)
            return bit

    @property
    def parameter_offset(self) -> dict[str, int]:
        """Each parameter's bit offset in a packed soft set."""
        try:
            return self._parameter_offset
        except AttributeError:
            width, last = len(self.objects), len(self.parameters) - 1
            offset = {p: width * (last - i) for i, p in enumerate(self.parameters)}
            _set_parameter_offset(self, offset)
            return offset

    def object_mask(self, names: Iterable[str]) -> int:
        """The bits of ``names``, gathered by one ``itemgetter`` and
        summed, or ORed where a name repeats (the sum then carries and
        has fewer set bits).  The first unknown name raises UnknownObject.
        A list or tuple is read as it is, a bare string raises TypeError,
        and any other iterable is copied."""
        if not isinstance(names, (list, tuple)):
            if isinstance(names, str):
                raise TypeError(f"an image is a sequence of names, not one string: {names!r}")
            names = tuple(names)
        try:
            if len(names) > 1:
                bits = operator.itemgetter(*names)(self.object_bit)
            elif names:
                bits = (self.object_bit[names[0]],)
            else:
                return 0
        except KeyError as exc:
            raise UnknownObject(f"unknown object {exc.args[0]!r}") from None
        mask = sum(bits)
        return mask if mask.bit_count() == len(bits) else reduce(operator.or_, bits)

    def objects_of_mask(self, mask: int) -> frozenset[str]:
        return frozenset(_members(self.objects, mask))

    def __repr__(self):
        return f"Context(objects={list(self.objects)}, parameters={list(self.parameters)})"


# The slots' own setters, bound once: Context.__setattr__ refuses every
# write.
_set_objects = Context.objects.__set__
_set_parameters = Context.parameters.__set__
_set_full_mask = Context.full_mask.__set__
_set_full_bits = Context.full_bits.__set__
_set_object_bit = Context._object_bit.__set__
_set_parameter_offset = Context._parameter_offset.__set__


def _cell_context(obj: str, parameter: str) -> Context:
    """The 1x1 frame of one object and one parameter of a valid context,
    built without ``__init__`` and its checks of names that context has
    passed: the one-cell frames that shrinking tries."""
    c = object.__new__(Context)
    _set_objects(c, (obj,))
    _set_parameters(c, (parameter,))
    _set_full_mask(c, 1)
    _set_full_bits(c, 1)
    return c


# The constructor under its older public name.
new_context = Context


def _sugar(function: str):
    """An operator method that calls ``function`` of ``softsets.algebra``,
    looked up at each call (imported then, to avoid a cycle), so patched
    operations are seen.  A binary one returns ``NotImplemented`` for an
    operand that is not a soft set, so Python raises ``TypeError``."""

    def method(self, *other):
        if other and not isinstance(other[0], SoftSet):
            return NotImplemented
        from . import algebra

        return getattr(algebra, function)(self, *other)

    return method


class SoftSet(_Frozen):
    """An immutable soft set over ``context``.

    ``bits`` packs one mask per context parameter (see the module
    docstring); mask 0 means the parameter is outside the domain.  Use
    the constructors (:func:`soft_set` and friends, or
    :meth:`from_masks`) rather than packing bits by hand.

    A slotted class: its two attributes are set once, in ``__init__``
    (or, for bits in range by construction, by ``softsets.algebra`` and
    :func:`_bare_soft_set`, through the same slot setters), and any
    later assignment or deletion raises ``FrozenInstanceError``.
    ``masks`` and ``assignment`` unpack ``bits`` again on each access.
    Soft sets are equal, and hash equal, when their bits are equal and
    their contexts are equal.
    """

    __slots__ = ("context", "bits")
    __match_args__ = ("context", "bits")

    context: Context
    bits: int

    def __init__(self, context: Context, bits: int):
        bits = operator.index(bits)  # a float or other non-integer raises TypeError
        if not 0 <= bits <= context.full_bits:
            size = (
                f"{len(context.objects)} objects x {len(context.parameters)} parameters"
                if isinstance(context, Context)
                else f"{context.full_bits.bit_length()} bits"  # a law check's chunk frame
            )
            raise ValueError(f"bits out of range for a context of {size}")
        _set_context(self, context)
        _set_bits(self, bits)

    @classmethod
    def from_masks(cls, context: Context, masks: Iterable[int]) -> "SoftSet":
        """Pack one mask per context parameter, in context order."""
        masks = tuple(masks)
        if len(masks) != len(context.parameters):
            raise ValueError(
                f"expected {len(context.parameters)} masks, got {len(masks)}"
            )
        full = context.full_mask
        width = len(context.objects)
        bits = 0
        for m in masks:
            if not 0 <= m <= full:
                raise ValueError(f"mask {m:#x} out of range for this universe")
            bits = bits << width | m
        return cls(context, bits)

    @property
    def masks(self) -> tuple[int, ...]:
        """One mask per context parameter, in context order."""
        ctx = self.context
        width, bits, full = len(ctx.objects), self.bits, ctx.full_mask
        if not width:  # no objects, so no parameters either
            return ()
        return tuple(
            bits >> offset & full
            for offset in range(width * (len(ctx.parameters) - 1), -1, -width)
        )

    @property
    def assignment(self) -> Mapping[str, frozenset[str]]:
        """The defined parameters and their images, in context order."""
        ctx = self.context
        return {
            name: ctx.objects_of_mask(m)
            for name, m in zip(ctx.parameters, self.masks)
            if m
        }

    def domain(self) -> frozenset[str]:
        return frozenset(name for name, m in zip(self.context.parameters, self.masks) if m)

    def image(self, parameter: str) -> frozenset[str] | None:
        """Image at ``parameter``, or None when the parameter is undefined.

        Never returns an empty set.  Unknown parameters (absent from the
        context) raise rather than counting as undefined.
        """
        ctx = self.context
        try:
            offset = ctx.parameter_offset[parameter]
        except KeyError:
            raise UnknownParameter(f"unknown parameter {parameter!r}") from None
        m = self.bits >> offset & ctx.full_mask
        return ctx.objects_of_mask(m) if m else None

    def is_empty(self) -> bool:
        return not self.bits

    def is_universal(self) -> bool:
        return self.bits == self.context.full_bits

    # Operator sugar; the functions of softsets.algebra are the primary
    # interface.
    __and__ = _sugar("intersection")
    __or__ = _sugar("union")
    __sub__ = _sugar("difference")
    __invert__ = _sugar("complement")
    __le__ = _sugar("subset")

    def __repr__(self):
        return "SoftSet({" + "; ".join(_image_lines(self, "")) + "})"


# The slots' own setters, bound once: SoftSet.__setattr__ refuses every
# write.  ``softsets.algebra`` builds its results with them, skipping
# ``__init__`` and its range check.
_set_context = SoftSet.context.__set__
_set_bits = SoftSet.bits.__set__


def _bare_soft_set(context: Context, bits: int) -> SoftSet:
    """The soft set of ``bits`` over ``context``, built as the algebra
    builds its results: without ``__init__`` and its range check, for
    bits in [0, context.full_bits] by construction.  Law checking builds
    its one-cell shrink candidates, transposed tuples and the constants
    of a law's run with it."""
    s = object.__new__(SoftSet)
    _set_context(s, context)
    _set_bits(s, bits)
    return s


def _image_lines(s: SoftSet, indent: str) -> list[str]:
    """One ``parameter: object object`` line per defined parameter, in
    context order, each after ``indent``: the workspace format's image
    lines, which ``SoftSet``'s repr also joins.  Each image is read
    straight from the packed bits, at its parameter's offset."""
    ctx = s.context
    objects, full, bits = ctx.objects, ctx.full_mask, s.bits
    width = len(objects)
    offset = width * len(ctx.parameters)
    lines = []
    for name in ctx.parameters:
        offset -= width
        m = bits >> offset & full
        if m:
            lines.append(f"{indent}{name}: {' '.join(_members(objects, m))}")
    return lines


def _pack_pairs(
    ctx: Context,
    pairs: Iterable[tuple[str, Iterable[str]]],
    *,
    strict: bool,
) -> SoftSet:
    """OR each pair's image mask into one integer at its parameter's
    offset, as the workspace loader does."""
    bits = 0
    seen: set[str] = set()
    offsets = ctx.parameter_offset
    for parameter, objs in pairs:
        try:
            offset = offsets[parameter]
        except KeyError:
            raise UnknownParameter(f"unknown parameter {parameter!r}") from None
        if parameter in seen:
            raise DuplicateParameter(f"parameter {parameter!r} listed twice")
        seen.add(parameter)
        m = ctx.object_mask(objs)
        if m == 0 and strict:
            raise EmptyImage(f"empty image for parameter {parameter!r}")
        bits |= m << offset  # an empty image adds nothing: undefined
    return SoftSet(ctx, bits)


def soft_set(ctx: Context, pairs: Iterable[tuple[str, Iterable[str]]]) -> SoftSet:
    """Normalizing constructor: pairs with an empty image are dropped.

    This realizes the correspondence between soft sets and partial
    functions from the parameter space to nonempty object subsets: a
    parameter mapped to nothing is the same as an undefined parameter.
    """
    return _pack_pairs(ctx, pairs, strict=False)


def strict_soft_set(ctx: Context, pairs: Iterable[tuple[str, Iterable[str]]]) -> SoftSet:
    """Like :func:`soft_set` but an empty image raises EmptyImage."""
    return _pack_pairs(ctx, pairs, strict=True)


def empty_soft_set(ctx: Context) -> SoftSet:
    """The soft set with empty domain."""
    return SoftSet(ctx, 0)


def universal_soft_set(ctx: Context) -> SoftSet:
    """The soft set defined on every parameter with every image the
    whole universe."""
    return SoftSet(ctx, ctx.full_bits)

