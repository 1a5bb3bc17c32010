"""Soft-set algebra over finite contexts.

A soft set assigns a nonempty subset of a fixed universe to each
parameter in its domain.  This package provides the value types, the
four operations (intersection, union, complement, difference) with the
subset relation, an executable catalog of their algebraic laws with
exhaustive and randomized checking, a small expression language, a text
workspace format, and a command-line interface.
"""

from .algebra import complement, difference, equals, intersection, subset, union
from .model import (
    Context,
    SoftSet,
    empty_soft_set,
    new_context,
    soft_set,
    strict_soft_set,
    universal_soft_set,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Always ``"pure"``: every operation is plain integer arithmetic on
    packed soft sets, with no compiled extension to choose."""
    return "pure"

__all__ = [
    "Context",
    "SoftSet",
    "new_context",
    "soft_set",
    "strict_soft_set",
    "empty_soft_set",
    "universal_soft_set",
    "intersection",
    "union",
    "complement",
    "difference",
    "subset",
    "equals",
    "backend_name",
    "__version__",
]
