"""Executable catalog of the soft-set algebra laws, plus the machinery
to verify them: an exhaustive enumerator over small contexts, a seeded
random generator, exhaustive and randomized checkers, and shrinking of
a counterexample to one cell.

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
call.  Each checker is a source of (start, w, argument chunks) for one
verdict loop (``_check_chunks``).  Exhaustive checking takes the chunks
from the enumeration, in ``itertools.product`` order; random checking
draws them (``_random_chunk``, at the fixed ``DEFINED_DENSITY`` and
``MEMBER_DENSITY``) in rounds, one member plane for every image still
empty per round.  The draw of an arity-k law is the first k argument
chunks of the seed's stream, so when one chunk, of at most
``RANDOM_CHUNK_PLANE_BITS`` bits or one tuple, covers all the trials,
laws with the same frame sizes, trial count and seed share one memoized
stream (``_one_round``) and each reads the prefix its arity needs; more
trials draw afresh.  The loop evaluates a law written as text bit-sliced
(``FormulaCheck.failures``) and reads only its first failing tuple off
the chunks (``_trial``) in both modes; any other check gets the same
tuples one at a time, from the enumeration's ``itertools.product`` or
transposed from the random chunks (``_transpose``).  The decoded and
transposed tuples, like the shrink candidates and the EMPTY and
UNIVERSAL of a run, are in range by construction and skip ``SoftSet``'s
range check, as the algebra's results do; the argument chunks that
``failures`` is given keep it.  A single tuple is a chunk of width 1
over the tuple's own frame, so the check that shrinking and replay call
on every law runs the same steps as the checkers do.

Shrinking restricts a failing tuple to one cell of its frame, one object
by one parameter, keeping the first cell where the law still fails, and
then empties each argument it can (``shrink``).  For a law written as
text such a cell always exists, so its counterexample is always 1x1.
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
from .model import Context, SoftSet, _bare_soft_set, _cell_context

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

    def __post_init__(self):
        # A counterexample binds each argument to its name, so a name
        # short of the arity would drop an argument from the rendering.
        if self.arity != len(self.arg_names):
            raise ValueError(
                f"law {self.id}: arity {self.arity}, but {len(self.arg_names)} argument names"
            )


@dataclass(frozen=True)
class Counterexample:
    """A violating argument tuple, shrunk to one cell where it can be.

    Shrinking restricts the tuple to one object and one parameter when
    the law still fails there, so the counterexample carries its own
    (possibly smaller) context.  Feeding ``args`` back into the law's
    check reproduces the violation.
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
    cap = operator.index(cap)  # a float, string or None raises TypeError
    n_bits = len(ctx.objects) * len(ctx.parameters) * law.arity
    if _exceeds(n_bits, cap):
        raise EnumerationTooLarge(
            f"law {law.id}: 2**{n_bits} argument tuples exceed the cap of {cap}"
        )


def enumerate_soft_sets(ctx: Context, cap: int = DEFAULT_CAP) -> Iterator[SoftSet]:
    """Yield every soft set over ctx exactly once, in a fixed order: the
    packed bits count up from 0, which is the order of the per-parameter
    mask tuples with the last parameter varying fastest."""
    cap = operator.index(cap)
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


def _transpose(wide: int, n: int, width: int) -> Iterator[int]:
    """The packed bits of each trial of an ``n``-block chunk, in trial
    order: bit j of trial t's value is bit t of block j.

    The chunk's binary digits are written once, most significant first,
    below a one bit a whole block above the chunk; trial t's digits are
    then every ``width``-th one from the zero of that block at column
    t, which also reads 0 for a chunk of no blocks.  Each trial is read
    when it is asked for.  ``bin()`` writes the digits once, where
    ``format(wide, "0Nb")`` copies them into a second string: on the
    40 x 40 memory test that copy peaked at about 4.5 MB."""
    digits = bin(wide | 1 << (n + 1) * width)
    return (int(digits[width + 2 - t :: width], 2) for t in range(width))


def _trial(wide: int, n: int, width: int, t: int) -> int:
    """The packed bits of trial ``t`` alone of an ``n``-block chunk, as
    ``_transpose`` reads them: bit j is bit j·width + t of ``wide``.  The
    chunk is written out once, as bytes, and only those n bits are read,
    where ``_transpose`` would write all ``width`` trials' digits."""
    data = wide.to_bytes(n * width + 7 >> 3, "little")
    bits = 0
    for p in range(t + (n - 1) * width, t - 1, -width):
        bits = bits << 1 | data[p >> 3] >> (p & 7) & 1
    return bits


def _random_soft_set(
    ctx: Context, rng: random.Random, defined_density: float, member_density: float
) -> SoftSet:
    """One trial of the chunk generator: at width 1, a chunk is the
    packed bits themselves."""
    return SoftSet(ctx, _random_chunk(ctx, 1, rng, defined_density, member_density))


def _draw(
    ctx: Context, width: int, arity: int, rng: random.Random,
    defined_density: float, member_density: float,
) -> tuple[int, ...]:
    """The argument chunks of ``width`` trials of an ``arity``-argument
    law, drawn one argument after another from ``rng``."""
    return tuple(
        _random_chunk(ctx, width, rng, defined_density, member_density) for _ in range(arity)
    )


@lru_cache(maxsize=4)
def _one_round(
    n_objects: int, n_params: int, trials: int, seed: int,
    defined_density: float, member_density: float,
) -> list[tuple[tuple[int, ...], random.Random]]:
    """The stream that random checks one chunk covers share, whatever
    their arity: a list of pairs, one unless calls overlapped, of the
    argument chunks drawn so far and the ``random.Random(seed)`` that drew
    them.  The key holds all that
    ``_random_chunk`` reads, the frame's sizes and the densities too, so
    a patched constant gets a new stream.  An entry holds at most
    ``RANDOM_CHUNK_PLANE_BITS`` bits, or one tuple's when that is wider."""
    return [((), random.Random(seed))]


def _seed(seed: int) -> int:
    """A seed as an int, refused when negative: ``random.Random`` seeds
    from the absolute value, so -7 would draw what 7 draws."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must not be negative")
    return seed


def random_soft_set(ctx: Context, seed: int) -> SoftSet:
    """Seeded random soft set, drawn as ``check_random`` draws each
    argument (``DEFINED_DENSITY``, ``MEMBER_DENSITY``)."""
    return _random_soft_set(ctx, random.Random(_seed(seed)), DEFINED_DENSITY, MEMBER_DENSITY)


# ---------------------------------------------------------------------------
# Laws written as text
#
# A law's text parses into a formula (``expr.parse_formula``), whose
# program (``_key()``) a FormulaCheck reads once into a flat list of
# steps in post-order: EMPTY or UNIVERSAL, an operation of
# ``softsets.algebra``, a relation or a connective, each reading the
# arguments or the values of earlier steps.  One loop runs the steps on
# soft sets that each hold w argument tuples in the chunk layout of the
# module docstring.  A relation that holds on every tuple of the chunk
# is decided by one comparison of its sides' bits; only one that fails
# somewhere folds the n blocks where it fails into one truth plane over
# the tuples.  The connectives combine planes.  The run has two callers:
#
# * ``check(ctx, args)`` runs the steps on one tuple's soft sets over
#   their own context, where w = 1, and reads the violation detail off
#   the values of that run; replay and shrinking use this;
# * ``failures`` runs them on a chunk of tuples over a chunk frame, as
#   both checkers do (``_check_chunks``).

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


@lru_cache(maxsize=32)
def _chunk_frame(bits: int) -> _ChunkFrame:
    """The frame of ``bits``-bit chunks, built once per size."""
    return _ChunkFrame(_ones(bits))


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
    like any law check, and raises ValueError for a tuple of another
    length than the law's arity and ContextMismatch for an argument over
    another frame than ctx.  ``failures`` evaluates a chunk of tuples at
    once with the same steps.
    """

    def __init__(self, text: str, arg_names: tuple[str, ...]):
        self.text = text
        self.arg_names = arg_names
        self.formula = expr.parse_formula(text)
        program = self.formula._key()
        names = {scalar for cls, scalar in program if cls is expr.Name}
        if sorted(names) != sorted(arg_names):  # also refuses a repeated argument
            raise ValueError(f"law {text!r} names {sorted(names)}, not the arguments {list(arg_names)}")
        index = {name: i for i, name in enumerate(arg_names)}
        # A run's values are the arguments, then one value per step.  A
        # step is (kind, a, b): an operation node's algebra function (the
        # kinds in ``_operations``), a formula's operator or a constant's
        # class name, and the values of its operands, or None.  The loop
        # keeps the value of each subtree read so far on a stack.
        steps: list[tuple[str, int, int | None]] = []
        stack: list[int] = []
        for cls, scalar in program:
            first = len(stack) - len(cls.__match_args__) + (scalar is not None)
            a, b, *_ = stack[first:] + [None, None]
            del stack[first:]
            if cls is expr.Name:
                stack.append(index[scalar])
            else:
                steps.append((getattr(cls, "function", None) or scalar or cls.__name__, a, b))
                stack.append(len(arg_names) + len(steps) - 1)
        self._steps = steps
        self._operations = frozenset(cls.function for cls, _ in program if hasattr(cls, "function"))
        kind, hypothesis, _ = steps[-1]
        # The first value of the conclusion, where an implication stops
        # when no tuple meets its hypothesis.
        self._conclusion = hypothesis + 1 if kind == "=>" else len(arg_names)

    def __call__(self, ctx: Context, args: tuple[SoftSet, ...]) -> str | None:
        if len(args) != len(self.arg_names):
            raise ValueError(f"law {self.text!r} takes {len(self.arg_names)} arguments, not {len(args)}")
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
            # intermediate, slow on big integers.  A relation that holds
            # on the whole chunk needs no fold.
            elif kind == "=":
                s, t = values[a].bits, values[b].bits
                value = ones if s == t else ones ^ _or_blocks(s ^ t, n, width)
            elif kind == "<=":
                s, t = values[a].bits, values[b].bits
                u = s | t
                value = ones if u == t else ones ^ _or_blocks(u ^ t, n, width)
            elif kind == "and":
                value = values[a] & values[b]
            elif kind == "=>":
                value = (ones ^ values[a]) | values[b]
            elif kind == "<=>":
                value = ones ^ values[a] ^ values[b]
            elif kind == "Empty":
                value = _bare_soft_set(frame, 0)
            else:  # "Universal"
                value = _bare_soft_set(frame, frame.full_bits)
            values.append(value)
            if len(values) == conclusion and not value:
                return 0, values
        return ones ^ values[-1], values

    def failures(self, chunks: list[int], n: int, width: int) -> int:
        """The bit-sliced evaluation: ``chunks[i]`` is argument i over a
        chunk of ``width`` tuples of ``n``-bit soft sets, block j holding
        packed bit j.  Returns the plane of the tuples that violate the
        law, bit t for tuple t."""
        frame = _chunk_frame(n * width)
        return self._run(frame, [SoftSet(frame, chunk) for chunk in chunks], n, width)[0]


def _check_contexts(ctx: Context, args: tuple[SoftSet, ...]) -> None:
    for arg in args:
        if arg.context is not ctx and arg.context != ctx:
            raise ContextMismatch(f"an argument lives over {arg.context!r}, not {ctx!r}")


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
        assert detail is not None  # shrink returns only tuples that still violate the law
    cex = Counterexample(sctx, sargs, detail, _render_counterexample(law, sctx, sargs))
    return CheckReport(law.id, mode, cases, cex, seed)


def _exhaustive_chunks(n: int, arity: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The (start, width, argument chunks) of every tuple of ``arity``
    ``n``-bit soft sets, in ``itertools.product`` order."""
    width = min(n * arity, CHUNK_BITS)
    first = _first_chunk(n, arity, width)
    ones = _ones(1 << width)
    for chunk in range(1 << (n * arity - width)):
        chunks = first
        if chunk:  # the index bits above the chunk fill whole blocks
            high = [0] * width + [ones * (chunk >> k & 1) for k in range(n * arity - width)]
            chunks = tuple(
                arg | _join(high[n * (arity - 1 - i) : n * (arity - i)], 1 << width)
                for i, arg in enumerate(first)
            )
        yield chunk << width, 1 << width, chunks


def _random_chunks(ctx: Context, n: int, arity: int, trials: int, seed: int):
    """The (start, width, argument chunks) of ``trials`` seeded random
    tuples: the first ``arity`` chunks of the memoized stream when one
    chunk covers them all.  Each call takes the stream's pair off it and
    puts it back, drawn on to ``arity`` chunks, so no other call draws
    from that generator meanwhile; a call that finds no pair, as another
    call holds it or a draw raised, draws from the seed."""
    per_chunk = max(1, min(1 << CHUNK_BITS, RANDOM_CHUNK_PLANE_BITS // max(1, n * arity)))
    if trials <= per_chunk:
        dd, md = DEFINED_DENSITY, MEMBER_DENSITY
        stream = _one_round(len(ctx.objects), len(ctx.parameters), trials, seed, dd, md)
        try:
            chunks, rng = stream.pop()
        except IndexError:
            chunks, rng = (), random.Random(seed)
        if len(chunks) < arity:
            chunks += _draw(ctx, trials, arity - len(chunks), rng, dd, md)
        stream.append((chunks, rng))
        yield 0, trials, chunks[:arity]
        return
    rng = random.Random(seed)
    for start in range(0, trials, per_chunk):
        width = min(per_chunk, trials - start)
        yield start, width, _draw(ctx, width, arity, rng, DEFINED_DENSITY, MEMBER_DENSITY)


def _transposed(ctx: Context, n: int, source) -> Iterator[tuple[SoftSet, ...]]:
    """The tuples of the chunks of ``source``, one at a time."""
    for _, width, chunks in source:
        columns = [
            map(partial(_bare_soft_set, ctx), _transpose(chunk, n, width)) for chunk in chunks
        ]
        yield from zip(*columns) if columns else itertools.repeat((), width)


def _check_chunks(
    law: Law, mode: str, ctx: Context, source, cases: int, seed: int | None, tuples=None
) -> CheckReport:
    """The report of ``law`` on the chunks of ``source``.  A law written
    as text evaluates each chunk bit-sliced; any other check is called on
    each tuple of ``tuples()``, or of the chunks transposed.  A failure at
    tuple t of the chunk from tuple s on is case s + t + 1."""
    n = len(ctx.objects) * len(ctx.parameters)
    check = law.check  # bound once: looked up per tuple, it slowed this loop by about 4%
    if isinstance(check, FormulaCheck):
        for start, width, chunks in source:
            failing = check.failures(chunks, n, width)
            if failing:
                t = (failing & -failing).bit_length() - 1  # the first failing tuple
                args = tuple(_bare_soft_set(ctx, _trial(chunk, n, width, t)) for chunk in chunks)
                detail = check(ctx, args)
                return _report_violation(law, mode, start + t + 1, ctx, args, seed, detail)
    else:
        for case, args in enumerate(tuples() if tuples else _transposed(ctx, n, source), 1):
            detail = check(ctx, args)
            if detail is not None:
                return _report_violation(law, mode, case, ctx, args, seed, detail)
    return CheckReport(law.id, mode, cases, None, seed)


def check_exhaustive(law: Law, ctx: Context, cap: int = DEFAULT_CAP) -> CheckReport:
    """Evaluate the law on every argument tuple over ctx."""
    check_cap(law, ctx, cap)
    n = len(ctx.objects) * len(ctx.parameters)

    def tuples():
        # An arity-0 law has one case, the empty tuple, whatever the frame.
        all_sets = list(enumerate_soft_sets(ctx, cap=cap)) if law.arity else []
        return itertools.product(all_sets, repeat=law.arity)

    chunks = _exhaustive_chunks(n, law.arity)
    return _check_chunks(law, "exhaustive", ctx, chunks, 1 << n * law.arity, None, tuples)


def check_random(law: Law, ctx: Context, trials: int, seed: int) -> CheckReport:
    """Evaluate the law on ``trials`` tuples drawn in chunks from the
    seed (``_random_chunk``, at ``DEFINED_DENSITY`` and ``MEMBER_DENSITY``).
    Conditional laws sample unconstrained tuples; tuples missing the
    hypothesis pass vacuously."""
    trials, seed = operator.index(trials), _seed(seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = len(ctx.objects) * len(ctx.parameters)
    chunks = _random_chunks(ctx, n, law.arity, trials, seed)
    return _check_chunks(law, "random", ctx, chunks, trials, seed)


# ---------------------------------------------------------------------------
# Shrinking


def _cells(
    ctx: Context, args: tuple[SoftSet, ...]
) -> Iterator[tuple[Context, tuple[SoftSet, ...]]]:
    """The tuple restricted to each single cell of its frame, one object
    by one parameter: parameters from last to first, which is lowest
    packed offset first, and within each the objects from last to first.
    A cell's bit in each argument becomes the packed bit of a 1x1 frame."""
    objects, parameters = ctx.objects, ctx.parameters
    offset = 0
    for parameter in reversed(parameters):
        for k in reversed(range(len(objects))):
            cell = _cell_context(objects[k], parameter)
            yield cell, tuple(_bare_soft_set(cell, a.bits >> offset + k & 1) for a in args)
        offset += len(objects)


def shrink(
    law: Law, ctx: Context, args: tuple[SoftSet, ...]
) -> tuple[Context, tuple[SoftSet, ...]]:
    """Reduce a violating tuple to a small one that still violates the law.

    First the tuple is restricted to each single cell of its frame in
    turn (``_cells``), and the first 1x1 tuple that still violates the
    law replaces it.  Then each argument, in order, is made empty where
    the tuple still violates the law.  A candidate violates the law when
    the law's check returns a detail for it, so the result always does.

    A law written as text always ends on one cell.  Every operation is
    bitwise, so a relation holds on a frame exactly when it holds at each
    cell, and restricting the tuple to a cell keeps true relations true.
    A formula of the grammar fails through one false relation (of a
    false conjunction, of a conclusion whose hypothesis holds, or of the
    false side of an equivalence whose other side holds), and at a cell
    where that relation fails the formula still fails.  A Python check
    that no single cell violates, and any tuple on a frame of at most one
    cell, skip the scan: they only have arguments emptied, on their own
    frame.
    """
    if len(args) != law.arity:
        raise ValueError(f"law {law.id} takes {law.arity} arguments, not {len(args)}")
    check = law.check
    if len(ctx.objects) * len(ctx.parameters) > 1:
        ctx, args = next(
            (cut for cut in _cells(ctx, args) if check(*cut) is not None), (ctx, args)
        )
    empty = _bare_soft_set(ctx, 0)
    for i, a in enumerate(args):
        if a.bits:
            emptied = args[:i] + (empty,) + args[i + 1 :]
            if check(ctx, emptied) is not None:
                args = emptied
    return ctx, args
