"""Operations and relations on soft sets sharing one context.

All six entry points are pure functions over immutable values.  The two
operands of a binary operation must be built over equal contexts;
nothing is ever coerced across frames, because the complement (and with
it every derived identity) changes meaning when the universe or the
parameter space changes underneath it.

Results come out normalized: a parameter whose computed image would be
empty is simply undefined in the result, so no operation can ever leak
an empty image.

The functions read nothing from a context but ``full_bits``, and compare
the two operands' contexts, by identity first and by equality only when
they are distinct objects; nothing else of the frame is touched.  Law
checking relies on this contract: it evaluates a chunk of argument
tuples at once as soft sets over a minimal frame that holds only
``full_bits`` (see ``softsets.laws``).
"""

from __future__ import annotations

from .errors import ContextMismatch
from .model import SoftSet, _set_bits, _set_context

__all__ = [
    "subset",
    "equals",
    "intersection",
    "union",
    "complement",
    "difference",
]


def _shared_context(s: SoftSet, t: SoftSet) -> None:
    """Raise ContextMismatch unless t's context equals s's.  The callers
    test identity inline first and call this only for distinct context
    objects, which spares the call on the common path."""
    if s.context != t.context:
        raise ContextMismatch(
            f"soft sets live over different contexts: {s.context!r} vs {t.context!r}"
        )


# Each operation is one integer operation on the packed bits, applied to
# every parameter's mask at once:
#
# * intersection  a & b        0 where either side is undefined or the
#                              images are disjoint: exactly the
#                              normalization the operation demands
# * union         a | b        keeps a where b is undefined, b where a
#                              is undefined, the joined image otherwise
# * complement    full ^ a     undefined becomes the whole universe, a
#                              full image becomes undefined, anything
#                              else flips within the universe
# * difference    a & ~b       drops parameters whose image b covers,
#                              keeps a where b is undefined
# * subset        not a & ~b   per-parameter image inclusion; a nonzero
#                              mask of a forces a nonzero mask of b, so
#                              domain inclusion comes for free
#
# None of them can leave [0, full_bits] when its operands lie in it, so
# the results skip SoftSet.__init__ and its range check: each is a bare
# instance whose two slots are set through the slots' own setters.
_new = object.__new__


def subset(s: SoftSet, t: SoftSet) -> bool:
    """True iff every parameter defined in s is defined in t with a
    superset image.  The empty soft set is a subset of everything."""
    if s.context is not t.context:
        _shared_context(s, t)
    return not s.bits & ~t.bits


def equals(s: SoftSet, t: SoftSet) -> bool:
    """True iff s and t have the same domain and the same images;
    equivalently, each is a subset of the other."""
    if s.context is not t.context:
        _shared_context(s, t)
    return s.bits == t.bits


def intersection(s: SoftSet, t: SoftSet) -> SoftSet:
    """Parameter-wise image intersection, defined exactly where both
    operands are defined and the images meet."""
    ctx = s.context
    if ctx is not t.context:
        _shared_context(s, t)
    result = _new(SoftSet)
    _set_context(result, ctx)
    _set_bits(result, s.bits & t.bits)
    return result


def union(s: SoftSet, t: SoftSet) -> SoftSet:
    """Defined wherever either operand is; keeps the lone image on the
    symmetric difference of the domains, joins images on the overlap."""
    ctx = s.context
    if ctx is not t.context:
        _shared_context(s, t)
    result = _new(SoftSet)
    _set_context(result, ctx)
    _set_bits(result, s.bits | t.bits)
    return result


def complement(s: SoftSet) -> SoftSet:
    """Complement with respect to the universal soft set.

    Parameters with a full image drop out of the domain, undefined
    parameters come back with the whole universe, and every other image
    flips within the universe.  Total: the result is always a valid
    soft set.
    """
    ctx = s.context
    result = _new(SoftSet)
    _set_context(result, ctx)
    _set_bits(result, ctx.full_bits ^ s.bits)
    return result


def difference(s: SoftSet, t: SoftSet) -> SoftSet:
    """Relative complement of t in s: image-wise s minus t where both
    are defined (dropping parameters t fully covers), s's own image
    elsewhere on s's domain."""
    ctx = s.context
    if ctx is not t.context:
        _shared_context(s, t)
    result = _new(SoftSet)
    _set_context(result, ctx)
    _set_bits(result, s.bits & ~t.bits)
    return result
