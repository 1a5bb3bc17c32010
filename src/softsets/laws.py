"""Executable catalog of the soft-set algebra laws, plus the machinery
to verify them: an exhaustive enumerator over small contexts, a seeded
random generator, exhaustive and randomized checkers, and greedy
counterexample shrinking.

Every law is a named, arity-tagged identity whose ``check`` procedure
either returns None (the law holds on the given arguments) or a short
violation detail.  Checks are pure, so a reported counterexample always
replays.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

from . import algebra
from .errors import EnumerationTooLarge
from .model import Context, SoftSet, empty_soft_set, universal_soft_set

__all__ = [
    "DEFAULT_CAP",
    "Law",
    "Counterexample",
    "CheckReport",
    "soft_set_count",
    "enumerate_soft_sets",
    "check_cap",
    "random_soft_set",
    "law_catalog",
    "lookup",
    "check_exhaustive",
    "check_random",
    "shrink",
]

DEFAULT_CAP = 1_000_000

CheckFn = Callable[[Context, tuple[SoftSet, ...]], "str | None"]


@dataclass(frozen=True)
class Law:
    id: str
    arity: int
    statement: str
    check: CheckFn
    arg_names: tuple[str, ...]


@dataclass(frozen=True)
class Counterexample:
    """A violating argument tuple, shrunk to a local minimum.

    Shrinking may remove objects and parameters from the frame, so the
    counterexample carries its own (possibly smaller) context.  Feeding
    ``args`` back into the law's check reproduces the violation.
    """

    context: Context
    args: tuple[SoftSet, ...]
    detail: str
    rendered: str


@dataclass(frozen=True)
class CheckReport:
    law_id: str
    mode: str  # "exhaustive" | "random"
    cases: int
    counterexample: Counterexample | None
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


# ---------------------------------------------------------------------------
# Generators


def soft_set_count(ctx: Context) -> int:
    """Number of distinct soft sets over ctx: each parameter is either
    undefined or carries one of the 2^|U| - 1 nonempty images."""
    return (2 ** len(ctx.objects)) ** len(ctx.parameters)


def _exceeds(n_bits: int, cap: int) -> bool:
    """Whether 2**n_bits exceeds cap.  Comparing bit lengths never builds
    the power, which for a large frame has millions of digits."""
    return n_bits >= cap.bit_length()


def check_cap(law: Law, ctx: Context, cap: int = DEFAULT_CAP) -> None:
    """Raise EnumerationTooLarge when an exhaustive check of ``law`` over
    ctx would take more than ``cap`` argument tuples."""
    n_bits = len(ctx.objects) * len(ctx.parameters) * law.arity
    if _exceeds(n_bits, cap):
        raise EnumerationTooLarge(
            f"law {law.id}: 2**{n_bits} argument tuples exceed the cap of {cap}"
        )


def enumerate_soft_sets(ctx: Context, cap: int = DEFAULT_CAP) -> Iterator[SoftSet]:
    """Yield every soft set over ctx exactly once, in a fixed order: the
    packed bits count up from 0, which is the order of the per-parameter
    mask tuples with the last parameter varying fastest."""
    n_bits = len(ctx.objects) * len(ctx.parameters)
    if _exceeds(n_bits, cap):
        raise EnumerationTooLarge(f"2**{n_bits} soft sets exceed the cap of {cap}")
    for bits in range(1 << n_bits):
        yield SoftSet(ctx, bits)


def _random_soft_set(
    ctx: Context, rng: random.Random, defined_density: float, member_density: float
) -> SoftSet:
    full = ctx.full_mask
    n_objects = len(ctx.objects)
    masks = []
    for _ in ctx.parameters:
        if rng.random() >= defined_density:
            masks.append(0)
            continue
        if member_density >= 1.0:
            masks.append(full)
            continue
        m = 0
        while m == 0:  # resample until the image is nonempty
            for k in range(n_objects):
                if rng.random() < member_density:
                    m |= 1 << k
        masks.append(m)
    return SoftSet.from_masks(ctx, masks)


def random_soft_set(
    ctx: Context, seed: int, defined_density: float, member_density: float
) -> SoftSet:
    """Seeded random soft set: each parameter is defined with probability
    defined_density; a defined image includes each object with
    probability member_density and is resampled while empty."""
    if not 0.0 <= defined_density <= 1.0:
        raise ValueError("defined_density must lie in [0, 1]")
    if not 0.0 < member_density <= 1.0:
        raise ValueError("member_density must lie in (0, 1]")
    return _random_soft_set(ctx, random.Random(seed), defined_density, member_density)


# ---------------------------------------------------------------------------
# The catalog


def _eq_law(
    law_id: str,
    arity: int,
    statement: str,
    lhs: Callable,
    rhs: Callable,
    arg_names: tuple[str, ...] | None = None,
) -> Law:
    def check(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
        left = lhs(ctx, *args)
        right = rhs(ctx, *args)
        if algebra.equals(left, right):
            return None
        return f"left side {left!r} differs from right side {right!r}"

    names = arg_names if arg_names is not None else ("F", "G", "H")[:arity]
    return Law(law_id, arity, statement, check, names)


def _check_bounds(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    (f,) = args
    if not algebra.subset(empty_soft_set(ctx), f):
        return f"EMPTY is not a subset of {f!r}"
    if not algebra.subset(f, universal_soft_set(ctx)):
        return f"{f!r} is not a subset of UNIVERSAL"
    return None


def _monotonicity_check(op) -> CheckFn:
    def check(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
        f1, g1, f2, g2 = args
        if not (algebra.subset(f1, g1) and algebra.subset(f2, g2)):
            return None  # hypothesis not met: vacuous pass
        if algebra.subset(op(f1, f2), op(g1, g2)):
            return None
        return f"{op(f1, f2)!r} is not a subset of {op(g1, g2)!r}"

    return check


def _iff_check(rhs_holds: Callable[[SoftSet, SoftSet], bool]) -> CheckFn:
    def check(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
        f, g = args
        left = algebra.subset(f, g)
        right = rhs_holds(f, g)
        if left == right:
            return None
        return f"subset is {left} but the characterizing equation is {right}"

    return check


def _complement_fwd(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    f, g = args
    if not algebra.equals(g, algebra.complement(f)):
        return None
    if not algebra.intersection(f, g).is_empty():
        return f"F & G = {algebra.intersection(f, g)!r} is not EMPTY"
    if not algebra.union(f, g).is_universal():
        return f"F | G = {algebra.union(f, g)!r} is not UNIVERSAL"
    return None


def _complement_bwd(ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
    f, g = args
    if not (algebra.intersection(f, g).is_empty() and algebra.union(f, g).is_universal()):
        return None
    if algebra.equals(g, algebra.complement(f)):
        return None
    return f"{g!r} differs from the complement {algebra.complement(f)!r}"


@cache
def law_catalog() -> tuple[Law, ...]:
    """The full fixed catalog, one entry per verified assertion."""
    inter, union, comp, diff = (
        algebra.intersection,
        algebra.union,
        algebra.complement,
        algebra.difference,
    )
    return (
        _eq_law(
            "identity-1", 1, "F & UNIVERSAL = F",
            lambda ctx, f: inter(f, universal_soft_set(ctx)),
            lambda ctx, f: f,
        ),
        _eq_law(
            "identity-2", 1, "F | EMPTY = F",
            lambda ctx, f: union(f, empty_soft_set(ctx)),
            lambda ctx, f: f,
        ),
        _eq_law(
            "domination-1", 1, "F & EMPTY = EMPTY",
            lambda ctx, f: inter(f, empty_soft_set(ctx)),
            lambda ctx, f: empty_soft_set(ctx),
        ),
        _eq_law(
            "domination-2", 1, "F | UNIVERSAL = UNIVERSAL",
            lambda ctx, f: union(f, universal_soft_set(ctx)),
            lambda ctx, f: universal_soft_set(ctx),
        ),
        _eq_law(
            "idempotent-1", 1, "F & F = F",
            lambda ctx, f: inter(f, f),
            lambda ctx, f: f,
        ),
        _eq_law(
            "idempotent-2", 1, "F | F = F",
            lambda ctx, f: union(f, f),
            lambda ctx, f: f,
        ),
        _eq_law(
            "commutative-1", 2, "F & G = G & F",
            lambda ctx, f, g: inter(f, g),
            lambda ctx, f, g: inter(g, f),
        ),
        _eq_law(
            "commutative-2", 2, "F | G = G | F",
            lambda ctx, f, g: union(f, g),
            lambda ctx, f, g: union(g, f),
        ),
        _eq_law(
            "associative-1", 3, "(F & G) & H = F & (G & H)",
            lambda ctx, f, g, h: inter(inter(f, g), h),
            lambda ctx, f, g, h: inter(f, inter(g, h)),
        ),
        _eq_law(
            "associative-2", 3, "(F | G) | H = F | (G | H)",
            lambda ctx, f, g, h: union(union(f, g), h),
            lambda ctx, f, g, h: union(f, union(g, h)),
        ),
        _eq_law(
            "distributive-1", 3, "F & (G | H) = (F & G) | (F & H)",
            lambda ctx, f, g, h: inter(f, union(g, h)),
            lambda ctx, f, g, h: union(inter(f, g), inter(f, h)),
        ),
        _eq_law(
            "distributive-2", 3, "F | (G & H) = (F | G) & (F | H)",
            lambda ctx, f, g, h: union(f, inter(g, h)),
            lambda ctx, f, g, h: inter(union(f, g), union(f, h)),
        ),
        Law(
            "bounds", 1,
            "EMPTY is a subset of F, and F is a subset of UNIVERSAL",
            _check_bounds, ("F",),
        ),
        Law(
            "monotonicity-cap", 4,
            "if F1 is a subset of G1 and F2 of G2, then F1 & F2 is a subset of G1 & G2",
            _monotonicity_check(inter), ("F1", "G1", "F2", "G2"),
        ),
        Law(
            "monotonicity-cup", 4,
            "if F1 is a subset of G1 and F2 of G2, then F1 | F2 is a subset of G1 | G2",
            _monotonicity_check(union), ("F1", "G1", "F2", "G2"),
        ),
        Law(
            "subset-iff-cap", 2,
            "F is a subset of G iff F & G = F",
            _iff_check(lambda f, g: algebra.equals(inter(f, g), f)), ("F", "G"),
        ),
        Law(
            "subset-iff-cup", 2,
            "F is a subset of G iff F | G = G",
            _iff_check(lambda f, g: algebra.equals(union(f, g), g)), ("F", "G"),
        ),
        Law(
            "complement-characterization-fwd", 2,
            "if G = F^c then F & G = EMPTY and F | G = UNIVERSAL",
            _complement_fwd, ("F", "G"),
        ),
        Law(
            "complement-characterization-bwd", 2,
            "if F & G = EMPTY and F | G = UNIVERSAL then G = F^c",
            _complement_bwd, ("F", "G"),
        ),
        _eq_law(
            "involution", 1, "F^c^c = F",
            lambda ctx, f: comp(comp(f)),
            lambda ctx, f: f,
        ),
        _eq_law(
            "demorgan-1", 2, "(F & G)^c = F^c | G^c",
            lambda ctx, f, g: comp(inter(f, g)),
            lambda ctx, f, g: union(comp(f), comp(g)),
        ),
        _eq_law(
            "demorgan-2", 2, "(F | G)^c = F^c & G^c",
            lambda ctx, f, g: comp(union(f, g)),
            lambda ctx, f, g: inter(comp(f), comp(g)),
        ),
        _eq_law(
            "difference-as-intersection", 2, "F - G = F & G^c",
            lambda ctx, f, g: diff(f, g),
            lambda ctx, f, g: inter(f, comp(g)),
        ),
    )


def lookup(law_id: str) -> Law:
    for law in law_catalog():
        if law.id == law_id:
            return law
    raise KeyError(law_id)


# ---------------------------------------------------------------------------
# Checking


def _render_counterexample(law: Law, ctx: Context, args: tuple[SoftSet, ...]) -> str:
    from .workspace import Workspace, render_workspace

    return render_workspace(Workspace(ctx, dict(zip(law.arg_names, args))))


def _report_violation(
    law: Law, mode: str, cases: int, ctx: Context, args: tuple[SoftSet, ...], seed: int | None
) -> CheckReport:
    sctx, sargs = shrink(law, ctx, args)
    detail = law.check(sctx, sargs)
    assert detail is not None  # shrink only accepts still-violating reductions
    cex = Counterexample(sctx, sargs, detail, _render_counterexample(law, sctx, sargs))
    return CheckReport(law.id, mode, cases, cex, seed)


def check_exhaustive(law: Law, ctx: Context, cap: int = DEFAULT_CAP) -> CheckReport:
    """Evaluate the law on every argument tuple over ctx."""
    check_cap(law, ctx, cap)
    all_sets = list(enumerate_soft_sets(ctx, cap=cap))
    cases = 0
    for args in itertools.product(all_sets, repeat=law.arity):
        cases += 1
        if law.check(ctx, args) is not None:
            return _report_violation(law, "exhaustive", cases, ctx, args, None)
    return CheckReport(law.id, "exhaustive", cases, None, None)


def check_random(
    law: Law,
    ctx: Context,
    trials: int,
    seed: int,
    defined_density: float = 0.6,
    member_density: float = 0.5,
) -> CheckReport:
    """Evaluate the law on ``trials`` seeded random argument tuples.

    Deterministic for a fixed seed.  Conditional laws sample
    unconstrained tuples; tuples missing the hypothesis pass vacuously.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        args = tuple(
            _random_soft_set(ctx, rng, defined_density, member_density)
            for _ in range(law.arity)
        )
        if law.check(ctx, args) is not None:
            return _report_violation(law, "random", trial, ctx, args, seed)
    return CheckReport(law.id, "random", trials, None, seed)


# ---------------------------------------------------------------------------
# Shrinking


def _drop_parameter(ctx: Context, j: int) -> Context:
    parameters = ctx.parameters[:j] + ctx.parameters[j + 1 :]
    return Context(ctx.objects, parameters)


def _drop_object(ctx: Context, k: int) -> Context:
    objects = ctx.objects[:k] + ctx.objects[k + 1 :]
    return Context(objects, ctx.parameters)


def _squeeze_bit(mask: int, k: int) -> int:
    low = mask & ((1 << k) - 1)
    return (mask >> (k + 1)) << k | low


def _reductions(
    ctx: Context, args: tuple[SoftSet, ...]
) -> Iterator[tuple[Context, tuple[SoftSet, ...]]]:
    """Candidate reductions in a fixed order: parameter-level reductions
    first, then object-level ones, as ties go to earlier arguments and
    earlier context positions."""
    n_params = len(ctx.parameters)
    n_objects = len(ctx.objects)

    # Drop a parameter from the frame entirely.
    for j in range(n_params):
        smaller = _drop_parameter(ctx, j)
        yield smaller, tuple(
            SoftSet.from_masks(smaller, a.masks[:j] + a.masks[j + 1 :]) for a in args
        )

    # Make one parameter undefined in one argument.
    for i, a in enumerate(args):
        for j in range(n_params):
            if a.masks[j]:
                masks = a.masks[:j] + (0,) + a.masks[j + 1 :]
                yield ctx, args[:i] + (SoftSet.from_masks(ctx, masks),) + args[i + 1 :]

    # Drop an object from the universe (images losing their last member
    # become undefined; an emptied universe is only legal without
    # parameters).
    if n_objects > 1 or n_params == 0:
        for k in range(n_objects):
            smaller = _drop_object(ctx, k)
            yield smaller, tuple(
                SoftSet.from_masks(smaller, (_squeeze_bit(m, k) for m in a.masks))
                for a in args
            )

    # Remove one object from one image, keeping the image nonempty.
    for i, a in enumerate(args):
        for j in range(n_params):
            m = a.masks[j]
            for k in range(n_objects):
                if m >> k & 1 and m != 1 << k:
                    masks = a.masks[:j] + (m & ~(1 << k),) + a.masks[j + 1 :]
                    yield ctx, args[:i] + (SoftSet.from_masks(ctx, masks),) + args[i + 1 :]


def shrink(
    law: Law, ctx: Context, args: tuple[SoftSet, ...]
) -> tuple[Context, tuple[SoftSet, ...]]:
    """Greedily reduce a violating tuple to a locally minimal one.

    First-improvement search over the fixed reduction order; every
    accepted step still violates the law, so the result does too.
    Deterministic, and only locally minimal.
    """
    while True:
        for smaller_ctx, smaller_args in _reductions(ctx, args):
            if law.check(smaller_ctx, smaller_args) is not None:
                ctx, args = smaller_ctx, smaller_args
                break
        else:
            return ctx, args
