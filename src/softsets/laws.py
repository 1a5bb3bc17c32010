"""Executable catalog of the soft-set algebra laws, plus the machinery
to verify them: an exhaustive enumerator over small contexts, a seeded
random generator, exhaustive and randomized checkers, and greedy
counterexample shrinking.

Every law is a named, arity-tagged identity whose ``check`` procedure
either returns None (the law holds on the given arguments) or a short
violation detail.  Checks are pure, so a reported counterexample always
replays.  Catalog laws are written once, as text in the expression
language with relations and connectives (``formula_law``).  Such a law
compiles into one list of steps, run through ``softsets.algebra`` on one
argument tuple or on a whole chunk of tuples at once.

Both checkers work on chunks: a chunk of w tuples holds each argument
as one integer whose block j (bits j·w to j·w+w-1) is packed bit j of
that argument across the tuples, bit t for tuple t.  Such an integer is
a soft set over a chunk frame of n·w bits, and every operation is
bitwise, so ``softsets.algebra`` itself evaluates all w tuples in one
call.  Exhaustive checking takes the chunks from the enumeration,
random checking draws them (``_random_chunk``, at the fixed
``DEFINED_DENSITY`` and ``MEMBER_DENSITY``) in rounds, one member
plane for every image still empty per round.  A law written as text
evaluates them bit-sliced (``FormulaCheck.failures``); any other check
gets the same tuples one at a time, mapped over the enumeration's
``itertools.product`` or transposed from the random chunks.  A single
tuple is a chunk of width 1 over the tuple's own frame, so the
check that shrinking and replay call on every law runs the same steps
as the checkers do.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache, lru_cache, partial

from . import algebra, expr
from .errors import DEFAULT_CAP, ContextMismatch, EnumerationTooLarge
from .model import Context, SoftSet, empty_soft_set, universal_soft_set

__all__ = [
    "DEFAULT_CAP",
    "DEFINED_DENSITY",
    "MEMBER_DENSITY",
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
    the power, which for a large frame has millions of digits; every
    power exceeds a negative cap."""
    return cap < 0 or n_bits >= cap.bit_length()


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


# Most bits the arguments of one random chunk hold together (trials x
# |U|·|E| x arity): a wide frame gets fewer trials per chunk, but at
# least one, so memory stays bounded whatever the trial count.
RANDOM_CHUNK_PLANE_BITS = 1 << 21


# Each parameter of a random soft set is defined with probability
# DEFINED_DENSITY, and a defined image holds each object with probability
# MEMBER_DENSITY, redrawn while empty.
DEFINED_DENSITY = 0.6
MEMBER_DENSITY = 0.5


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
    """Cut ``wide`` into ``count`` blocks of ``width`` bits, lowest first.
    Halving first keeps the cost near linear in the bits of ``wide``;
    shifting the whole of it once per block would be quadratic."""
    if count > 32:
        half = count // 2
        low = wide & (1 << half * width) - 1
        return _split(low, half, width) + _split(wide >> half * width, count - half, width)
    ones = (1 << width) - 1
    return [wide >> k * width & ones for k in range(count)]


def _join(parts: list[int], width: int) -> int:
    """The inverse of ``_split``: part k at bits k·width and up."""
    if len(parts) > 32:
        half = len(parts) // 2
        return _join(parts[:half], width) | _join(parts[half:], width) << half * width
    wide = 0
    for part in reversed(parts):
        wide = wide << width | part
    return wide


@lru_cache(maxsize=32)
def _ones(bits: int) -> int:
    """The integer of ``bits`` one bits.  Cached, because on a chunk of
    2**16 tuples building it costs as much as an operation does."""
    return (1 << bits) - 1


def _or_blocks(wide: int, count: int, width: int) -> int:
    """The OR of the ``count`` blocks of ``width`` bits in ``wide``,
    folded in halves; blocks of one bit, as a check of one tuple has,
    OR to whether any bit is set."""
    if width == 1:
        return int(wide != 0)
    while count > 1:
        keep = (count + 1) // 2
        wide = wide & _ones(keep * width) | wide >> keep * width
        count = keep
    return wide


def _or_windows(wide: int, count: int, width: int, shift: Callable[[int, int], int]) -> int:
    """Each block of ``width`` bits of ``wide`` ORed with the ``count`` - 1
    blocks that ``shift`` brings onto it: the blocks above it for
    ``operator.rshift``, below it for ``operator.lshift``.  They come as
    two windows of 2**m <= count blocks, the second starting count - 2**m
    blocks away, which together cover all ``count``: m doublings build
    the windows and one more shift ORs in the second.  That is m + 1
    passes over ``wide`` and no mask; the caller masks off the blocks
    that took bits from beyond their group of ``count``."""
    span = 1
    while 2 * span <= count:
        wide |= shift(wide, span * width)
        span *= 2
    return wide | shift(wide, (count - span) * width)


def _random_chunk(
    ctx: Context, width: int, rng: random.Random, defined_density: float, member_density: float
) -> int:
    """Random soft sets for ``width`` trials, as one chunk: bit t of
    block j (bits j·width and up) is packed bit j of trial t's soft set,
    so each parameter's image is a run of |U| blocks, one per object.

    One draw gives every parameter's plane of the trials that define it,
    put in block 0 of its image: these trials start out empty.  Each
    round then draws one member plane for all images at once, shifts
    spread the empty trials over their images' blocks to keep only their
    bits (``_or_windows``), and shifts fold the kept bits back onto block
    0 to find the trials that got a member, which are empty no more.
    So each defined image is its first nonempty draw, resampled while
    empty as one tuple at a time would be, and the rounds stop when no
    trial of any parameter is empty."""
    n_objects, n_params = len(ctx.objects), len(ctx.parameters)
    image_bits = n_objects * width
    # Parameter i's defined plane is block i of the draw, and its image
    # run |E|-1-i of the chunk: object k of it is packed bit |U|·(|E|-1-i) + k.
    defined = _split(_bernoulli(rng, n_params * width, defined_density), n_params, width)
    empty = _join(defined[::-1], image_bits)
    chunk = 0
    while empty:
        batch = _bernoulli(rng, n_params * image_bits, member_density)
        batch &= _or_windows(empty, n_objects, width, operator.lshift)
        chunk |= batch
        # Block 0 of each image ORs in its |U| blocks; the other blocks
        # mix two images, and ``empty`` has no bits there.
        empty ^= empty & _or_windows(batch, n_objects, width, operator.rshift)
    return chunk


def _transpose(wide: int, n: int, width: int, first: int = 0) -> Iterator[int]:
    """The packed bits of each trial of an ``n``-block chunk from trial
    ``first`` on, in trial order: bit j of trial t's value is bit t of
    block j.

    The chunk's binary digits are written once, most significant first,
    below a one bit a whole block above the chunk; trial t's digits are
    then every ``width``-th one from the zero of that block at column
    t, which also reads 0 for a chunk of no blocks.  Each trial is read
    when it is asked for.  ``bin()`` writes the digits once, where
    ``format(wide, "0Nb")`` copies them into a second string: on the
    40 x 40 memory test that copy peaked at about 4.5 MB."""
    digits = bin(wide | 1 << (n + 1) * width)
    return (int(digits[width + 2 - t :: width], 2) for t in range(first, width))


def _random_soft_set(
    ctx: Context, rng: random.Random, defined_density: float, member_density: float
) -> SoftSet:
    """One trial of the chunk generator: at width 1, a chunk is the
    packed bits themselves."""
    return SoftSet(ctx, _random_chunk(ctx, 1, rng, defined_density, member_density))


def random_soft_set(ctx: Context, seed: int) -> SoftSet:
    """Seeded random soft set, drawn as ``check_random`` draws each
    argument (``DEFINED_DENSITY``, ``MEMBER_DENSITY``)."""
    return _random_soft_set(ctx, random.Random(seed), DEFINED_DENSITY, MEMBER_DENSITY)


# ---------------------------------------------------------------------------
# Laws written as text
#
# A law's text parses into a formula (``expr.parse_formula``), which a
# FormulaCheck folds once into a flat list of steps in post-order: EMPTY
# or UNIVERSAL, an operation of ``softsets.algebra``, a relation or a
# connective, each reading the arguments or the values of earlier
# steps.  One loop runs the steps on soft sets that
# each hold w argument tuples: block j of such a soft set (bits j·w to
# j·w+w-1) holds packed bit j of one argument across the tuples, bit t
# for tuple t.  That integer is a soft set over a frame of n·w bits (n
# packed bits per soft set), and since every operation is bitwise on the
# packed bits, one algebra call evaluates it for all w tuples.  A
# relation folds the n blocks where it fails into one truth plane over
# the tuples, and the connectives combine planes.  The run has two
# callers:
#
# * ``check(ctx, args)`` runs the steps on one tuple's soft sets over
#   their own context, where w = 1, and reads the violation detail off
#   the values of that run; replay and shrinking use this;
# * ``failures`` runs them on a chunk of tuples over a chunk frame.
#   Exhaustive checking builds the chunks of the enumeration
#   (``first_failure``, tuples in ``itertools.product`` order, the last
#   argument varying fastest), and random checking draws them
#   (``check_random``).

# Tuple-index bits per chunk: a chunk covers 2**CHUNK_BITS tuples, and
# higher index bits are constant within a chunk.
CHUNK_BITS = 16

_FAILURES = {
    "=": "left side {!r} differs from right side {!r}",
    "<=": "{!r} is not a subset of {!r}",
    "<=>": "the left side is {} but the right side is {}",
}


@dataclass(frozen=True)
class _ChunkFrame:
    """The frame of a chunk's soft sets: the algebra and ``SoftSet`` read
    nothing from a frame but ``full_bits``."""

    full_bits: int


@cache
def _first_chunk(n: int, arity: int, width: int) -> tuple[int, ...]:
    """The argument chunks of the first 2**width tuples of an exhaustive
    check: bit j of argument i is bit b = n·(arity-1-i) + j of the tuple
    index, so block j holds the plane of bit b over the tuples (2**b
    zeros, then 2**b ones, repeated) when b < width, and zeros above.
    Cached, so a law checked in one chunk builds nothing per call; each
    argument has at most ``width`` nonzero blocks."""
    size = 1 << width

    def plane(b: int) -> int:
        if b >= width:
            return 0
        run = 1 << b
        period = (1 << 2 * run) - 1
        return ((1 << size) - 1) // period * (period ^ (1 << run) - 1)

    return tuple(
        _join([plane(b) for b in range(n * (arity - 1 - i), n * (arity - i))], size)
        for i in range(arity)
    )


class FormulaCheck:
    """The ``check`` of a law written as text.

    Called as ``check(ctx, args)`` it returns None or a violation detail,
    like any law check, and raises ContextMismatch for an argument over
    another frame than ctx.  ``failures`` evaluates a chunk of tuples at
    once with the same steps, and ``first_failure(ctx)`` finds the index
    of the first violating tuple of an exhaustive check without building
    one.
    """

    def __init__(self, text: str, arg_names: tuple[str, ...]):
        self.text = text
        self.arg_names = arg_names
        self.formula = expr.parse_formula(text)
        index = {name: i for i, name in enumerate(arg_names)}
        names = set()
        # A run's values are the arguments, then one value per step.  A
        # step is (kind, a, b): an operation node's algebra function (the
        # kinds in ``operations``), a formula's operator or a constant's
        # class name, and the values of its operands.
        steps: list[tuple[str, int, int | None]] = []
        operations = set()

        def step(node, a=None, b=None) -> int | None:
            """The node's value: an argument's, or that of a new step."""
            if isinstance(node, expr.Name):
                names.add(node.identifier)
                return index.get(node.identifier)
            kind = getattr(node, "function", None)
            if kind:
                operations.add(kind)
            else:
                kind = node.op if isinstance(node, expr.Formula) else type(node).__name__
            steps.append((kind, a, b))
            return len(arg_names) + len(steps) - 1

        expr.fold(self.formula, step)
        if sorted(names) != sorted(arg_names):  # also refuses a repeated argument
            raise ValueError(f"law {text!r} names {sorted(names)}, not the arguments {list(arg_names)}")
        self._steps = steps
        self._operations = frozenset(operations)
        kind, hypothesis, _ = steps[-1]
        # The first value of the conclusion, where an implication stops
        # when no tuple meets its hypothesis.
        self._conclusion = hypothesis + 1 if kind == "=>" else len(arg_names)

    def __call__(self, ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
        _check_contexts(ctx, args)
        failing, values = self._run(ctx, args, len(ctx.objects) * len(ctx.parameters), 1)
        if not failing:
            return None
        kind, left, right = self._steps[-1]
        if kind == "<=>":
            return _FAILURES[kind].format(bool(values[left]), bool(values[right]))
        # The first relation of the conclusion that fails.
        start = self._conclusion
        kind, a, b = next(
            step for step, value in zip(self._steps[start - len(args) :], values[start:])
            if step[0] in ("=", "<=") and not value
        )
        return _FAILURES[kind].format(values[a], values[b])

    def __repr__(self) -> str:
        return f"FormulaCheck({self.text!r}, {self.arg_names!r})"

    def _run(self, frame, args, n: int, width: int) -> tuple[int, list]:
        """Run the steps on argument soft sets over ``frame``, each holding
        ``width`` tuples of ``n``-bit soft sets.  Returns the plane of the
        tuples that violate the law, bit t for tuple t, and the values of
        the run; an implication stops after its hypothesis when no tuple
        meets it.  The algebra is looked up at each call."""
        ones, conclusion, operations = _ones(width), self._conclusion, self._operations
        values = list(args)
        for kind, a, b in self._steps:
            if kind in operations:
                function = getattr(algebra, kind)
                value = function(values[a]) if b is None else function(values[a], values[b])
            # Relations compare bits as algebra.equals and algebra.subset
            # do; a & ~b is taken as (a | b) ^ b, which makes no negative
            # intermediate, slow on big integers.
            elif kind == "=":
                value = ones ^ _or_blocks(values[a].bits ^ values[b].bits, n, width)
            elif kind == "<=":
                s, t = values[a].bits, values[b].bits
                value = ones ^ _or_blocks((s | t) ^ t, n, width)
            elif kind == "and":
                value = values[a] & values[b]
            elif kind == "=>":
                value = (ones ^ values[a]) | values[b]
            elif kind == "<=>":
                value = ones ^ values[a] ^ values[b]
            elif kind == "Empty":
                value = empty_soft_set(frame)
            else:  # "Universal"
                value = universal_soft_set(frame)
            values.append(value)
            if len(values) == conclusion and not value:
                return 0, values
        return ones ^ values[-1], values

    def failures(self, chunks: list[int], n: int, width: int) -> int:
        """The bit-sliced evaluation: ``chunks[i]`` is argument i over a
        chunk of ``width`` tuples of ``n``-bit soft sets, block j holding
        packed bit j.  Returns the plane of the tuples that violate the
        law, bit t for tuple t."""
        frame = _ChunkFrame(_ones(n * width))
        return self._run(frame, [SoftSet(frame, chunk) for chunk in chunks], n, width)[0]

    def first_failure(self, ctx: Context) -> int | None:
        """Every tuple, bit-sliced: the index of the first argument tuple,
        in ``itertools.product`` order, that violates the law, or None
        when every tuple satisfies it."""
        n = len(ctx.objects) * len(ctx.parameters)
        arity = len(self.arg_names)
        width = min(n * arity, CHUNK_BITS)
        first = _first_chunk(n, arity, width)
        ones = _ones(1 << width)
        for chunk in range(1 << (n * arity - width)):
            chunks = first
            if chunk:  # the index bits above the chunk fill whole blocks
                high = [0] * width + [ones * (chunk >> k & 1) for k in range(n * arity - width)]
                chunks = [
                    arg | _join(high[n * (arity - 1 - i) : n * (arity - i)], 1 << width)
                    for i, arg in enumerate(first)
                ]
            failing = self.failures(chunks, n, 1 << width)
            if failing:
                return (chunk << width) + _lowest_bit(failing)
        return None


def _check_contexts(ctx: Context, args: tuple[SoftSet, ...]) -> None:
    for arg in args:
        if arg.context is not ctx and arg.context != ctx:
            raise ContextMismatch(f"an argument lives over {arg.context!r}, not {ctx!r}")


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
    law: Law, mode: str, cases: int, ctx: Context, args: tuple[SoftSet, ...],
    seed: int | None, detail: str | None,
) -> CheckReport:
    """Shrink and report a violating tuple.  ``detail`` is what the law's
    check, which the caller has made, returned on the tuple: None only
    for a tuple that the bit-sliced evaluation alone flagged."""
    if detail is None:
        # Only the bit-sliced evaluation flags a tuple its own check
        # passes, and it can only when an operation is not bitwise.
        sctx, sargs = ctx, args
        detail = (
            "the bit-sliced and per-tuple evaluations disagree on this tuple, "
            "so an operation is not bitwise"
        )
    else:
        sctx, sargs = shrink(law, ctx, args)
        detail = law.check(sctx, sargs)
        assert detail is not None  # shrink only accepts still-violating reductions
    cex = Counterexample(sctx, sargs, detail, _render_counterexample(law, sctx, sargs))
    return CheckReport(law.id, mode, cases, cex, seed)


def check_exhaustive(law: Law, ctx: Context, cap: int = DEFAULT_CAP) -> CheckReport:
    """Evaluate the law on every argument tuple over ctx.

    A law written as text is checked bit-sliced; any other check is
    mapped over the tuples in ``itertools.product`` order.  Both count
    cases the same way: a failure at tuple index t is reported as case
    t + 1, its arguments decoded from t.
    """
    check_cap(law, ctx, cap)
    index = detail = None
    if isinstance(law.check, FormulaCheck):
        index = law.check.first_failure(ctx)
    else:
        # An arity-0 law has one case, the empty tuple, whatever the frame.
        all_sets = list(enumerate_soft_sets(ctx, cap=cap)) if law.arity else []
        tuples = itertools.product(all_sets, repeat=law.arity)
        for t, detail in enumerate(map(law.check, itertools.repeat(ctx), tuples)):
            if detail is not None:
                index = t
                break
    n_bits = len(ctx.objects) * len(ctx.parameters)
    if index is None:
        return CheckReport(law.id, "exhaustive", 1 << n_bits * law.arity, None, None)
    mask = (1 << n_bits) - 1
    args = tuple(
        SoftSet(ctx, index >> n_bits * (law.arity - 1 - i) & mask) for i in range(law.arity)
    )
    if detail is None:  # the bit-sliced search formats no detail
        detail = law.check(ctx, args)
    return _report_violation(law, "exhaustive", index + 1, ctx, args, None, detail)


def check_random(law: Law, ctx: Context, trials: int, seed: int) -> CheckReport:
    """Evaluate the law on ``trials`` seeded random argument tuples.

    Deterministic for a fixed seed.  The tuples are drawn in chunks of
    trials (``_random_chunk``, at ``DEFINED_DENSITY`` and
    ``MEMBER_DENSITY``); a law written as text evaluates a chunk
    bit-sliced, and any other check is called once per tuple, transposed
    from the same chunks.  Both count cases the same way: a failure at
    trial t of the chunk starting at trial s is case s + t + 1.
    Conditional laws sample unconstrained tuples; tuples missing the
    hypothesis pass vacuously.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    n = len(ctx.objects) * len(ctx.parameters)
    per_chunk = max(1, min(1 << CHUNK_BITS, RANDOM_CHUNK_PLANE_BITS // max(1, n * law.arity)))
    for start in range(0, trials, per_chunk):
        width = min(per_chunk, trials - start)
        chunks = [
            _random_chunk(ctx, width, rng, DEFINED_DENSITY, MEMBER_DENSITY)
            for _ in range(law.arity)
        ]
        if isinstance(law.check, FormulaCheck):
            failing = law.check.failures(chunks, n, width)
            if failing:
                t = _lowest_bit(failing)
                args = tuple(SoftSet(ctx, next(_transpose(chunk, n, width, t))) for chunk in chunks)
                detail = law.check(ctx, args)
                return _report_violation(law, "random", start + t + 1, ctx, args, seed, detail)
            continue
        columns = [map(partial(SoftSet, ctx), _transpose(chunk, n, width)) for chunk in chunks]
        tuples = zip(*columns) if columns else itertools.repeat((), width)
        for case, args in enumerate(tuples, start + 1):
            detail = law.check(ctx, args)
            if detail is not None:
                return _report_violation(law, "random", case, ctx, args, seed, detail)
    return CheckReport(law.id, "random", trials, None, seed)


# ---------------------------------------------------------------------------
# Shrinking


def _squeeze_bit(mask: int, k: int) -> int:
    low = mask & ((1 << k) - 1)
    return (mask >> (k + 1)) << k | low


def _reductions(
    ctx: Context, args: tuple[SoftSet, ...]
) -> Iterator[tuple[Context, tuple[SoftSet, ...]]]:
    """Candidate reductions in a fixed order: parameter-level reductions
    first, then object-level ones, as ties go to earlier arguments and
    earlier context positions.  All but dropping an object work on the
    packed bits, where parameter j's mask is the block at ``offsets[j]``."""
    n_params = len(ctx.parameters)
    n_objects = len(ctx.objects)
    full = ctx.full_mask
    offsets = [n_objects * (n_params - 1 - j) for j in range(n_params)]

    # Drop a parameter from the frame entirely: splice its block out.  A
    # frame cut from a valid one is built without checking its names
    # again (``Context._cut``); an object is dropped below only while the
    # universe stays nonempty or there are no parameters.
    for j, offset in enumerate(offsets):
        smaller = Context._cut(ctx.objects, ctx.parameters[:j] + ctx.parameters[j + 1 :])
        low = (1 << offset) - 1
        yield smaller, tuple(
            SoftSet(smaller, a.bits >> offset + n_objects << offset | a.bits & low)
            for a in args
        )

    # Make one parameter undefined in one argument: clear its block.
    for i, a in enumerate(args):
        for offset in offsets:
            block = full << offset
            if a.bits & block:
                yield ctx, args[:i] + (SoftSet(ctx, a.bits & ~block),) + args[i + 1 :]

    # Drop an object from the universe (images losing their last member
    # become undefined; an emptied universe is only legal without
    # parameters).
    if n_objects > 1 or n_params == 0:
        arg_masks = [a.masks for a in args]
        for k in range(n_objects):
            smaller = Context._cut(ctx.objects[:k] + ctx.objects[k + 1 :], ctx.parameters)
            yield smaller, tuple(
                SoftSet.from_masks(smaller, (_squeeze_bit(m, k) for m in masks))
                for masks in arg_masks
            )

    # Remove one object from one image, keeping the image nonempty: clear
    # one bit of a block with at least two set.
    for i, a in enumerate(args):
        for offset in offsets:
            m = a.bits >> offset & full
            if m & m - 1:
                for k in range(n_objects):
                    if m >> k & 1:
                        reduced = SoftSet(ctx, a.bits ^ 1 << offset + k)
                        yield ctx, args[:i] + (reduced,) + args[i + 1 :]


def shrink(
    law: Law, ctx: Context, args: tuple[SoftSet, ...]
) -> tuple[Context, tuple[SoftSet, ...]]:
    """Greedily reduce a violating tuple to a locally minimal one.

    First-improvement search over the fixed reduction order; every
    accepted step still violates the law, so the result does too.
    Deterministic, and only locally minimal.  A candidate violates the
    law when the law's check returns a detail for it.
    """
    while True:
        for smaller_ctx, smaller_args in _reductions(ctx, args):
            if law.check(smaller_ctx, smaller_args) is not None:
                ctx, args = smaller_ctx, smaller_args
                break
        else:
            return ctx, args
