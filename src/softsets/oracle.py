"""Incidence-matrix cross-check of the soft-set operations.

An independent re-implementation used solely to verify the mask-based
algebra: a soft set becomes a boolean |E| x |U| grid plus a
defined-parameter column, each operation is recomputed by elementwise
boolean arithmetic following its definitional case split, and empty
rows are normalized away afterwards.  Conversions go through the public
accessors and the normalizing constructor, never through the mask
encoding, so the two routes share no code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Context, SoftSet, soft_set

__all__ = [
    "MatrixSoftSet",
    "from_soft_set",
    "to_soft_set",
    "intersection",
    "union",
    "complement",
    "difference",
]


@dataclass
class MatrixSoftSet:
    context: Context
    defined: np.ndarray  # bool, shape (|E|,)
    grid: np.ndarray  # bool, shape (|E|, |U|); undefined rows all False


def _normalized(ctx: Context, defined: np.ndarray, grid: np.ndarray) -> MatrixSoftSet:
    # Empty-row normalization: a row with no objects leaves the domain.
    nonempty = grid.any(axis=1)
    defined = defined & nonempty
    grid = grid & defined[:, None]
    return MatrixSoftSet(ctx, defined, grid)


def from_soft_set(s: SoftSet) -> MatrixSoftSet:
    ctx = s.context
    n_params, n_objs = len(ctx.parameters), len(ctx.objects)
    defined = np.zeros(n_params, dtype=bool)
    grid = np.zeros((n_params, n_objs), dtype=bool)
    column = {name: j for j, name in enumerate(ctx.objects)}
    for i, parameter in enumerate(ctx.parameters):
        img = s.image(parameter)
        if img is None:
            continue
        defined[i] = True
        for obj in img:
            grid[i, column[obj]] = True
    return MatrixSoftSet(ctx, defined, grid)


def to_soft_set(m: MatrixSoftSet) -> SoftSet:
    ctx = m.context
    pairs = []
    for i, parameter in enumerate(ctx.parameters):
        if m.defined[i]:
            pairs.append((parameter, {ctx.objects[j] for j in np.flatnonzero(m.grid[i])}))
    return soft_set(ctx, pairs)


def intersection(a: MatrixSoftSet, b: MatrixSoftSet) -> MatrixSoftSet:
    defined = a.defined & b.defined
    grid = (a.grid & b.grid) & defined[:, None]
    return _normalized(a.context, defined, grid)


def union(a: MatrixSoftSet, b: MatrixSoftSet) -> MatrixSoftSet:
    only_a = a.defined & ~b.defined
    only_b = b.defined & ~a.defined
    both = a.defined & b.defined
    grid = np.where(
        only_a[:, None],
        a.grid,
        np.where(only_b[:, None], b.grid, (a.grid | b.grid) & both[:, None]),
    )
    return _normalized(a.context, a.defined | b.defined, grid)


def complement(a: MatrixSoftSet) -> MatrixSoftSet:
    # Defined rows flip within the universe; undefined rows come back as
    # the whole universe.  Rows that used to hold the full universe go
    # empty and normalization removes them from the domain.
    n_params = len(a.context.parameters)
    grid = np.where(a.defined[:, None], ~a.grid, True)
    return _normalized(a.context, np.ones(n_params, dtype=bool), grid)


def difference(a: MatrixSoftSet, b: MatrixSoftSet) -> MatrixSoftSet:
    both = a.defined & b.defined
    grid = np.where(both[:, None], a.grid & ~b.grid, a.grid)
    return _normalized(a.context, a.defined, grid)
