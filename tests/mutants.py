"""Deliberately broken laws for sensitivity testing.

Each entry states a plausible-looking but false identity.  The checkers
must find a counterexample for every one of them; a law harness that
cannot refute these would also wave through real bugs.

All but one are written as text, like the catalog, so exhaustive checks
refute them bit-sliced; ``broken-complement-total`` keeps a Python
check, so the per-tuple exhaustive path has a mutant too.
"""

from softsets import algebra
from softsets.laws import Law, formula_law


def _check_complement_total(ctx, args):
    # false: parameters with a full image leave the complement's domain
    (f,) = args
    if algebra.complement(f).domain() == frozenset(ctx.parameters):
        return None
    return f"complement domain {sorted(algebra.complement(f).domain())} is partial"


BROKEN_LAWS = (
    formula_law("broken-difference-commutes", "F G", "F - G = G - F"),
    Law(
        "broken-complement-total", 1,
        "the complement is defined on every parameter",
        _check_complement_total, ("F",),
    ),
    formula_law(
        "broken-union-distributes-over-difference", "F G H",
        "F | (G - H) = (F | G) - (F | H)",
    ),
    formula_law("broken-demorgan", "F G", "(F & G)^c = F^c & G^c"),
    formula_law("broken-absorption", "F G", "F & (F | G) = G"),
    formula_law("broken-involution-single", "F", "F^c = F"),
    # Difference is antitone in its second argument.  The hypothesis is
    # rarely met by random tuples, so this one tests conditional laws.
    formula_law(
        "broken-difference-monotone", "F1 G1 F2 G2",
        "F1 <= G1 and F2 <= G2 => F1 - F2 <= G1 - G2",
    ),
)
