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
per-parameter mask tuples (last parameter fastest).  Rendering and
shrinking read the per-parameter masks, unpacked on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
    "domain",
    "image",
    "is_empty",
    "is_universal",
]


def _check_identifiers(kind: str, names: tuple[str, ...]) -> None:
    seen = set()
    for name in names:
        if not isinstance(name, str) or name == "":
            raise BadIdentifier(f"{kind} identifier must be a nonempty string, got {name!r}")
        if name in seen:
            raise DuplicateIdentifier(f"duplicate {kind} identifier {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class Context:
    """Shared frame for soft sets: an ordered universe of objects plus an
    ordered parameter space.  Declaration order is the canonical order used
    by every rendering.  Immutable; equal contexts are interchangeable.
    """

    objects: tuple[str, ...]
    parameters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        _check_identifiers("object", self.objects)
        _check_identifiers("parameter", self.parameters)
        if self.parameters and not self.objects:
            raise EmptyUniverse(
                "a context with parameters needs a nonempty universe: "
                "no parameter can have a nonempty image over an empty universe"
            )

    @cached_property
    def object_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.objects)}

    @cached_property
    def parameter_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.parameters)}

    @cached_property
    def object_bit(self) -> dict[str, int]:
        """Each object's bit in a mask: bit k for the k-th object."""
        return {name: 1 << k for k, name in enumerate(self.objects)}

    @cached_property
    def parameter_offset(self) -> dict[str, int]:
        """Each parameter's bit offset in a packed soft set."""
        width, last = len(self.objects), len(self.parameters) - 1
        return {name: width * (last - i) for i, name in enumerate(self.parameters)}

    @cached_property
    def full_mask(self) -> int:
        """Bitmask of the whole universe."""
        return (1 << len(self.objects)) - 1

    @cached_property
    def full_bits(self) -> int:
        """Packed bits of the universal soft set: every mask full."""
        return (1 << len(self.objects) * len(self.parameters)) - 1

    def object_mask(self, names: Iterable[str]) -> int:
        bit = self.object_bit
        mask = 0
        for name in names:
            try:
                mask |= bit[name]
            except KeyError:
                raise UnknownObject(f"unknown object {name!r}") from None
        return mask

    def objects_of_mask(self, mask: int) -> frozenset[str]:
        return frozenset(name for i, name in enumerate(self.objects) if mask >> i & 1)

    def __repr__(self):
        return f"Context(objects={list(self.objects)}, parameters={list(self.parameters)})"


def new_context(objects: Sequence[str], parameters: Sequence[str]) -> Context:
    """Build a context, rejecting duplicates and empty identifier strings.

    Declaration order becomes the canonical order.  A fully empty context
    is legal; a context with parameters but no objects is not.
    """
    return Context(tuple(objects), tuple(parameters))


@dataclass(frozen=True)
class SoftSet:
    """An immutable soft set over ``context``.

    ``bits`` packs one mask per context parameter (see the module
    docstring); mask 0 means the parameter is outside the domain.  Use
    the constructors (:func:`soft_set` and friends, or
    :meth:`from_masks`) rather than packing bits by hand.
    """

    context: Context
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.context.full_bits:
            raise ValueError(
                f"bits out of range for a context of "
                f"{len(self.context.objects)} objects x {len(self.context.parameters)} parameters"
            )

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

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """One mask per context parameter, in context order."""
        width = len(self.context.objects)
        full = self.context.full_mask
        return tuple(
            self.bits >> width * i & full
            for i in reversed(range(len(self.context.parameters)))
        )

    @cached_property
    def assignment(self) -> Mapping[str, frozenset[str]]:
        """The defined parameters and their images, in context order."""
        ctx = self.context
        return {
            name: ctx.objects_of_mask(m)
            for name, m in zip(ctx.parameters, self.masks)
            if m
        }

    def domain(self) -> frozenset[str]:
        return frozenset(self.assignment)

    def image(self, parameter: str) -> frozenset[str] | None:
        """Image at ``parameter``, or None when the parameter is undefined.

        Never returns an empty set.  Unknown parameters (absent from the
        context) raise rather than counting as undefined.
        """
        try:
            i = self.context.parameter_index[parameter]
        except KeyError:
            raise UnknownParameter(f"unknown parameter {parameter!r}") from None
        m = self.masks[i]
        return self.context.objects_of_mask(m) if m else None

    def is_empty(self) -> bool:
        return not self.bits

    def is_universal(self) -> bool:
        return self.bits == self.context.full_bits

    # Operator sugar; the module-level functions in softsets.algebra are
    # the primary interface.  Imports are deferred to avoid a cycle.
    def __and__(self, other: "SoftSet") -> "SoftSet":
        from . import algebra

        return algebra.intersection(self, other)

    def __or__(self, other: "SoftSet") -> "SoftSet":
        from . import algebra

        return algebra.union(self, other)

    def __sub__(self, other: "SoftSet") -> "SoftSet":
        from . import algebra

        return algebra.difference(self, other)

    def __invert__(self) -> "SoftSet":
        from . import algebra

        return algebra.complement(self)

    def __le__(self, other: "SoftSet") -> bool:
        from . import algebra

        return algebra.subset(self, other)

    def __repr__(self):
        ctx = self.context
        parts = []
        for name, m in zip(ctx.parameters, self.masks):
            if m:
                objs = " ".join(o for i, o in enumerate(ctx.objects) if m >> i & 1)
                parts.append(f"{name}: {objs}")
        return "SoftSet({" + "; ".join(parts) + "})"


def _pairs_to_masks(
    ctx: Context,
    pairs: Iterable[tuple[str, Iterable[str]]],
    *,
    strict: bool,
) -> tuple[int, ...]:
    masks = [0] * len(ctx.parameters)
    seen: set[str] = set()
    for parameter, objs in pairs:
        try:
            i = ctx.parameter_index[parameter]
        except KeyError:
            raise UnknownParameter(f"unknown parameter {parameter!r}") from None
        if parameter in seen:
            raise DuplicateParameter(f"parameter {parameter!r} listed twice")
        seen.add(parameter)
        m = ctx.object_mask(objs)
        if m == 0 and strict:
            raise EmptyImage(f"empty image for parameter {parameter!r}")
        masks[i] = m  # empty images fall through as 0 = undefined
    return tuple(masks)


def soft_set(ctx: Context, pairs: Iterable[tuple[str, Iterable[str]]]) -> SoftSet:
    """Normalizing constructor: pairs with an empty image are dropped.

    This realizes the correspondence between soft sets and partial
    functions from the parameter space to nonempty object subsets: a
    parameter mapped to nothing is the same as an undefined parameter.
    """
    return SoftSet.from_masks(ctx, _pairs_to_masks(ctx, pairs, strict=False))


def strict_soft_set(ctx: Context, pairs: Iterable[tuple[str, Iterable[str]]]) -> SoftSet:
    """Like :func:`soft_set` but an empty image raises EmptyImage."""
    return SoftSet.from_masks(ctx, _pairs_to_masks(ctx, pairs, strict=True))


def empty_soft_set(ctx: Context) -> SoftSet:
    """The soft set with empty domain."""
    return SoftSet(ctx, 0)


def universal_soft_set(ctx: Context) -> SoftSet:
    """The soft set defined on every parameter with every image the
    whole universe."""
    return SoftSet(ctx, ctx.full_bits)


# Free-function accessors mirroring the methods, for call sites that
# prefer the functional style.

def domain(s: SoftSet) -> frozenset[str]:
    return s.domain()


def image(s: SoftSet, parameter: str) -> frozenset[str] | None:
    return s.image(parameter)


def is_empty(s: SoftSet) -> bool:
    return s.is_empty()


def is_universal(s: SoftSet) -> bool:
    return s.is_universal()
