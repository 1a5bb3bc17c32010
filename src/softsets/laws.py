"""Executable catalog of the soft-set algebra laws, plus the machinery
to verify them: an exhaustive enumerator over small contexts, a seeded
random generator, exhaustive and randomized checkers, and greedy
counterexample shrinking.

Every law is a named, arity-tagged identity whose ``check`` procedure
either returns None (the law holds on the given arguments) or a short
violation detail.  Checks are pure, so a reported counterexample always
replays.  Catalog laws are written once, as text in the expression
language with relations and connectives (``formula_law``); their checks
also evaluate a whole chunk of argument tuples at once, as bit planes.

Both checkers work on planes: bit t of plane j of argument i is packed
bit j of argument i in tuple t.  Exhaustive checking takes them from
the enumeration, random checking draws them (``_random_planes``).  A
law written as text evaluates the planes bit-sliced
(``FormulaCheck.failures``); any other check gets the same tuples,
transposed from the planes, one at a time.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from typing import Callable, Iterator

from . import algebra, expr
from .errors import EnumerationTooLarge
from .model import Context, SoftSet, empty_soft_set, universal_soft_set

__all__ = [
    "DEFAULT_CAP",
    "Law",
    "FormulaCheck",
    "formula_law",
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


# Most bits the argument planes of one random chunk hold together
# (trials x |U|·|E| x arity): a wide frame gets fewer trials per chunk,
# but at least one, so memory stays bounded whatever the trial count.
RANDOM_CHUNK_PLANE_BITS = 1 << 21


def _check_densities(defined_density: float, member_density: float) -> None:
    if not 0.0 <= defined_density <= 1.0:
        raise ValueError("defined_density must lie in [0, 1]")
    if not 0.0 < member_density <= 1.0:
        raise ValueError("member_density must lie in (0, 1]")


def _bernoulli(rng: random.Random, width: int, p: float) -> int:
    """A plane of ``width`` independent bits, each set with probability p.

    Bit t is set iff u_t < p for a uniform u_t whose binary digits come
    one ``getrandbits`` plane per digit, compared with the binary
    expansion of p from the top.  A bit is decided at its first digit
    that differs from p's, so each draw settles about half of the bits
    still open, and p = 0.5 takes a single draw."""
    if p >= 1:
        return (1 << width) - 1
    num, den = p.as_integer_ratio()
    plane, undecided = 0, (1 << width) - 1
    while num and undecided:
        num <<= 1
        digits = rng.getrandbits(width)
        if num >= den:  # p's digit is 1: u's digit 0 decides u < p
            num -= den
            plane |= undecided & ~digits
            undecided &= digits
        else:  # p's digit is 0: u's digit 1 decides u > p
            undecided &= ~digits
    return plane


def _split(wide: int, count: int, width: int) -> list[int]:
    """Cut ``wide`` into ``count`` planes of ``width`` bits, lowest first.
    Halving first keeps the cost near linear in the bits of ``wide``;
    shifting the whole of it once per plane would be quadratic."""
    if count > 32:
        half = count // 2
        low = wide & (1 << half * width) - 1
        return _split(low, half, width) + _split(wide >> half * width, count - half, width)
    ones = (1 << width) - 1
    return [wide >> k * width & ones for k in range(count)]


def _bernoulli_planes(rng: random.Random, count: int, width: int, p: float) -> list[int]:
    """``count`` Bernoulli(p) planes of ``width`` bits, cut from one wide
    plane, so that a single comparison draws them all."""
    return _split(_bernoulli(rng, count * width, p), count, width)


def _random_planes(
    ctx: Context, width: int, rng: random.Random, defined_density: float, member_density: float
) -> list[int]:
    """Random soft sets for ``width`` trials, as planes: bit t of plane j
    is packed bit j of trial t's soft set.

    One draw gives every parameter's plane of the trials that define it,
    and one more a member plane per (parameter, object).  A trial whose
    defined image came out empty then redraws that image, and only that
    one, until it is nonempty: each trial's image is resampled while
    empty, as one tuple at a time would be, with a round of draws per
    parameter that needs it rather than per trial."""
    n_objects = len(ctx.objects)
    defined = _bernoulli_planes(rng, len(ctx.parameters), width, defined_density)
    drawn = _bernoulli_planes(rng, len(ctx.parameters) * n_objects, width, member_density)
    images = []
    for i, empty in enumerate(defined):
        image, batch = [0] * n_objects, drawn[i * n_objects : (i + 1) * n_objects]
        while empty:  # the trials that define parameter i with no member yet
            image = [m | d & empty for m, d in zip(image, batch)]
            empty &= ~reduce(operator.or_, batch)
            if empty:
                batch = _bernoulli_planes(rng, n_objects, width, member_density)
        images.append(image)
    # Object k of parameter i is packed bit |U|·(|E|-1-i) + k.
    return [plane for image in reversed(images) for plane in image]


def _transpose(planes: list[int], width: int) -> Iterator[int]:
    """The packed bits of each trial, in trial order: bit j of trial t's
    value is bit t of ``planes[j]``."""
    if not planes:
        return itertools.repeat(0, width)
    # Row r, read backwards, lists plane n-1-r by trial, so each column is
    # one trial's bits, most significant first.
    rows = [format(plane, f"0{width}b")[::-1] for plane in reversed(planes)]
    return (int("".join(column), 2) for column in zip(*rows))


def _random_soft_set(
    ctx: Context, rng: random.Random, defined_density: float, member_density: float
) -> SoftSet:
    """One trial of the plane generator."""
    (bits,) = _transpose(_random_planes(ctx, 1, rng, defined_density, member_density), 1)
    return SoftSet(ctx, bits)


def random_soft_set(
    ctx: Context, seed: int, defined_density: float, member_density: float
) -> SoftSet:
    """Seeded random soft set: each parameter is defined with probability
    defined_density; a defined image includes each object with
    probability member_density and is resampled while empty."""
    _check_densities(defined_density, member_density)
    return _random_soft_set(ctx, random.Random(seed), defined_density, member_density)


# ---------------------------------------------------------------------------
# Laws written as text
#
# A law's text parses into a formula (``expr.parse_formula``) and
# compiles into a FormulaCheck, which evaluates it in two ways:
#
# * on one argument tuple, through Python source generated from the
#   formula at its first call, making the same ``algebra`` calls a
#   hand-written check would; shrinking and replay use this;
# * on a chunk of argument tuples at once, bit-sliced: bit j of argument
#   i, over the chunk's tuples, is one "plane", an int whose bit t is
#   that bit in tuple t.  Every soft-set operation is bitwise on the
#   packed bits, so it applies plane by plane, and a relation reduces its
#   planes to one truth plane over the tuples.  This one plane evaluator
#   (``failures``) has two plane sources: exhaustive checking builds the
#   planes of a chunk of the enumeration (``first_failure``, tuples in
#   ``itertools.product`` order, the last argument varying fastest), and
#   random checking draws them (``check_random``).

# Tuple-index bits per plane: a chunk covers 2**CHUNK_BITS tuples, and
# higher index bits are constant within a chunk.
CHUNK_BITS = 16

# Names the generated checks call, by node type or operator.
_CALLS = {
    expr.Intersect: "_intersection",
    expr.Union: "_union",
    expr.Difference: "_difference",
    "=": "_equals",
    "<=": "_subset",
}
_CONNECTIVES = {"and": "({} and {})", "=>": "(not {} or {})", "<=>": "({} == {})"}
_FAILURES = {
    "=": "left side {!r} differs from right side {!r}",
    "<=": "{!r} is not a subset of {!r}",
    "<=>": "the left side is {} but the right side is {}",
}


@cache
def _low_planes(width: int) -> tuple[int, ...]:
    """Plane b over 2**width tuples: bit t is set iff bit b of t is.  One
    period (2**b zeros, then 2**b ones) doubles until it fills the plane."""
    size = 1 << width
    planes = []
    for b in range(width):
        run = 1 << b
        plane, length = ((1 << run) - 1) << run, 2 * run
        while length < size:
            plane |= plane << length
            length *= 2
        planes.append(plane)
    return tuple(planes)


class FormulaCheck:
    """The ``check`` of a law written as text.

    Called as ``check(ctx, args)`` it returns None or a violation detail,
    like any law check.  ``first_failure(ctx)`` finds the index of the
    first violating tuple of an exhaustive check without building one.
    """

    def __init__(self, text: str, arg_names: tuple[str, ...]):
        self.text = text
        self.arg_names = arg_names
        self.formula = expr.parse_formula(text)
        names = set()
        expr.fold(
            self.formula,
            lambda node, *_: names.add(node.identifier) if isinstance(node, expr.Name) else None,
        )
        if names != set(arg_names):
            raise ValueError(f"law {text!r} names {sorted(names)}, not the arguments {list(arg_names)}")
        self._index = {name: i for i, name in enumerate(arg_names)}

    def __call__(self, ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
        return self._scalar(ctx, args)

    def __repr__(self) -> str:
        return f"FormulaCheck({self.text!r}, {self.arg_names!r})"

    @cached_property
    def _scalar(self) -> CheckFn:
        """One tuple: Python source generated from the formula, calling
        the algebra exactly as a hand-written check would.  Compiled at
        the first call, so exhaustive checks of laws that hold skip it."""
        lines = ["def check(ctx, args):"]
        if self.arg_names:
            lines.append(f" {''.join(f'_a{i},' for i in range(len(self.arg_names)))} = args")
        temps = itertools.count()

        def source(node, *parts: str) -> str:
            if isinstance(node, expr.Name):
                return f"_a{self._index[node.identifier]}"
            if isinstance(node, expr.Empty):
                return "_empty(ctx)"
            if isinstance(node, expr.Universal):
                return "_universal(ctx)"
            if isinstance(node, expr.Complement):
                return f"_complement({parts[0]})"
            if not isinstance(node, expr.Formula):
                return f"{_CALLS[type(node)]}({parts[0]}, {parts[1]})"
            if node.op in _CONNECTIVES:
                return _CONNECTIVES[node.op].format(*parts)
            return f"{_CALLS[node.op]}({parts[0]}, {parts[1]})"

        def refute(f: expr.Formula, indent: str) -> None:
            """Append statements that return a detail when f fails."""
            if f.op == "and":
                refute(f.left, indent)
                refute(f.right, indent)
            elif f.op == "=>":
                lines.append(f"{indent}if {expr.fold(f.left, source)}:")
                refute(f.right, indent + " ")
            else:
                n = next(temps)
                test = "_l{0} != _r{0}" if f.op == "<=>" else f"not {_CALLS[f.op]}(_l{{0}}, _r{{0}})"
                lines.extend([
                    f"{indent}_l{n} = {expr.fold(f.left, source)}",
                    f"{indent}_r{n} = {expr.fold(f.right, source)}",
                    f"{indent}if {test.format(n)}:",
                    f"{indent} return {_FAILURES[f.op]!r}.format(_l{n}, _r{n})",
                ])

        refute(self.formula, " ")
        namespace = {"_" + name: getattr(algebra, name) for name in algebra.__all__}
        namespace.update(_empty=empty_soft_set, _universal=universal_soft_set)
        exec("\n".join(lines), namespace)
        return namespace["check"]

    def failures(self, planes: list[list[int]], n: int, ones: int) -> int:
        """The plane evaluator: ``planes[i][j]`` holds bit j of argument
        i across a chunk of argument tuples, one bit per tuple; ``n`` is
        the number of packed bits of a soft set and ``ones`` sets every
        tuple's bit.  Returns the plane of the tuples that violate the
        law."""

        def planewise(node, *values):
            # A soft set is a list of n planes, a formula one truth plane.
            if isinstance(node, expr.Name):
                return planes[self._index[node.identifier]]
            if isinstance(node, expr.Empty):
                return [0] * n
            if isinstance(node, expr.Universal):
                return [ones] * n
            if isinstance(node, expr.Complement):
                return [ones ^ p for p in values[0]]
            a, b = values
            if isinstance(node, expr.Intersect):
                return [p & q for p, q in zip(a, b)]
            if isinstance(node, expr.Union):
                return [p | q for p, q in zip(a, b)]
            if isinstance(node, expr.Difference):
                return [p & ~q for p, q in zip(a, b)]
            if node.op == "=":
                return ones ^ reduce(operator.or_, map(operator.xor, a, b), 0)
            if node.op == "<=":
                return ones ^ reduce(operator.or_, (p & ~q for p, q in zip(a, b)), 0)
            if node.op == "and":
                return a & b
            if node.op == "=>":
                return (ones ^ a) | b
            return ones ^ a ^ b

        return ones ^ expr.fold(self.formula, planewise)

    def first_failure(self, ctx: Context) -> int | None:
        """Every tuple, bit-sliced: the index of the first argument tuple,
        in ``itertools.product`` order, that violates the law, or None
        when every tuple satisfies it."""
        n = len(ctx.objects) * len(ctx.parameters)
        arity = len(self.arg_names)
        width = min(n * arity, CHUNK_BITS)
        low = _low_planes(width)
        ones = (1 << (1 << width)) - 1
        for chunk in range(1 << (n * arity - width)):
            # Bit j of argument i is bit n*(arity-1-i) + j of the tuple index.
            planes = [
                [
                    low[b] if b < width else ones * (chunk >> (b - width) & 1)
                    for b in range(n * (arity - 1 - i), n * (arity - i))
                ]
                for i in range(arity)
            ]
            failing = self.failures(planes, n, ones)
            if failing:
                return (chunk << width) + _lowest_bit(failing)
        return None


def _lowest_bit(plane: int) -> int:
    """Index of the lowest set bit of a nonzero plane."""
    return (plane & -plane).bit_length() - 1


def formula_law(law_id: str, arg_names: str, text: str) -> Law:
    """A law written as text over the space-separated ``arg_names``, in
    argument order; its statement is the text."""
    names = tuple(arg_names.split())
    return Law(law_id, len(names), text, FormulaCheck(text, names), names)


# ---------------------------------------------------------------------------
# The catalog


@cache
def law_catalog() -> tuple[Law, ...]:
    """The full fixed catalog, one entry per verified assertion."""
    return (
        formula_law("identity-1", "F", "F & UNIVERSAL = F"),
        formula_law("identity-2", "F", "F | EMPTY = F"),
        formula_law("domination-1", "F", "F & EMPTY = EMPTY"),
        formula_law("domination-2", "F", "F | UNIVERSAL = UNIVERSAL"),
        formula_law("idempotent-1", "F", "F & F = F"),
        formula_law("idempotent-2", "F", "F | F = F"),
        formula_law("commutative-1", "F G", "F & G = G & F"),
        formula_law("commutative-2", "F G", "F | G = G | F"),
        formula_law("associative-1", "F G H", "(F & G) & H = F & (G & H)"),
        formula_law("associative-2", "F G H", "(F | G) | H = F | (G | H)"),
        formula_law("distributive-1", "F G H", "F & (G | H) = (F & G) | (F & H)"),
        formula_law("distributive-2", "F G H", "F | (G & H) = (F | G) & (F | H)"),
        formula_law("bounds", "F", "EMPTY <= F and F <= UNIVERSAL"),
        formula_law(
            "monotonicity-cap", "F1 G1 F2 G2",
            "F1 <= G1 and F2 <= G2 => F1 & F2 <= G1 & G2",
        ),
        formula_law(
            "monotonicity-cup", "F1 G1 F2 G2",
            "F1 <= G1 and F2 <= G2 => F1 | F2 <= G1 | G2",
        ),
        formula_law("subset-iff-cap", "F G", "F <= G <=> F & G = F"),
        formula_law("subset-iff-cup", "F G", "F <= G <=> F | G = G"),
        formula_law(
            "complement-characterization-fwd", "F G",
            "G = F^c => F & G = EMPTY and F | G = UNIVERSAL",
        ),
        formula_law(
            "complement-characterization-bwd", "F G",
            "F & G = EMPTY and F | G = UNIVERSAL => G = F^c",
        ),
        formula_law("involution", "F", "F^c^c = F"),
        formula_law("demorgan-1", "F G", "(F & G)^c = F^c | G^c"),
        formula_law("demorgan-2", "F G", "(F | G)^c = F^c & G^c"),
        formula_law("difference-as-intersection", "F G", "F - G = F & G^c"),
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
    """Evaluate the law on every argument tuple over ctx.

    A law written as text is checked bit-sliced; any other check is
    called once per tuple.  Both count cases the same way: a failure at
    tuple index t is reported as case t + 1.
    """
    check_cap(law, ctx, cap)
    if isinstance(law.check, FormulaCheck):
        index = law.check.first_failure(ctx)
        n_bits = len(ctx.objects) * len(ctx.parameters)
        if index is None:
            return CheckReport(law.id, "exhaustive", 1 << n_bits * law.arity, None, None)
        mask = (1 << n_bits) - 1
        args = tuple(
            SoftSet(ctx, index >> n_bits * (law.arity - 1 - i) & mask)
            for i in range(law.arity)
        )
        return _report_violation(law, "exhaustive", index + 1, ctx, args, None)
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

    Deterministic for a fixed seed.  The tuples are drawn as planes, in
    chunks of trials (``_random_planes``); a law written as text
    evaluates a chunk bit-sliced, and any other check is called once per
    tuple, transposed from the same planes.  Both count cases the same
    way: a failure at trial t of the chunk starting at trial s is case
    s + t + 1.  Conditional laws sample unconstrained tuples; tuples
    missing the hypothesis pass vacuously.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_densities(defined_density, member_density)
    rng = random.Random(seed)
    n = len(ctx.objects) * len(ctx.parameters)
    per_chunk = max(1, min(1 << CHUNK_BITS, RANDOM_CHUNK_PLANE_BITS // max(1, n * law.arity)))
    for start in range(0, trials, per_chunk):
        width = min(per_chunk, trials - start)
        planes = [
            _random_planes(ctx, width, rng, defined_density, member_density)
            for _ in range(law.arity)
        ]
        if isinstance(law.check, FormulaCheck):
            failing = law.check.failures(planes, n, (1 << width) - 1)
            if failing:
                t = _lowest_bit(failing)
                args = tuple(
                    SoftSet(ctx, sum((p >> t & 1) << j for j, p in enumerate(arg)))
                    for arg in planes
                )
                return _report_violation(law, "random", start + t + 1, ctx, args, seed)
            continue
        columns = [map(partial(SoftSet, ctx), _transpose(arg, width)) for arg in planes]
        tuples = zip(*columns) if columns else itertools.repeat((), width)
        for case, args in enumerate(tuples, start + 1):
            if law.check(ctx, args) is not None:
                return _report_violation(law, "random", case, ctx, args, seed)
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
