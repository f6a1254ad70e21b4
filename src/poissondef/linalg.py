"""Exact linear algebra over Q used by the section-space, solver and
small-ring engines.

Input format: a matrix is a list of sparse columns, one per unknown, each a
dict {row key: value}; `solve_min` takes its right-hand side as one more
such dict. Absent keys are zero. The rows of a system are the union of the
keys of its columns and right-hand side, in sorted order, so the keys of one
system must be mutually comparable (tuples or ints). Only this module decides
how a system is laid out for elimination.

Elimination is a sparse reduced row echelon form over rows held as
{column index: value} that store only non-zero entries; the largest
matrices built here have hundreds of columns and are under 1% non-zero.
The reduced row echelon form of a matrix is unique, so which row supplies a
pivot, and in which order the rows are reduced, changes only the work done,
never the result: every kernel basis, solution and witness is determined by
the matrix alone.

Values are exact: ints where integral, Fractions otherwise. The one
division, by a pivot, goes through Fraction, and a quotient that is
integral is stored as an int again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .symbolic import _as_scalar


def _subtract(row: dict, f, other: dict) -> None:
    """row -= f * other, in place, dropping entries that cancel."""
    for c, v in other.items():
        x = row.get(c)
        if x is None:
            row[c] = -f * v
        else:
            x -= f * v
            if x:
                row[c] = x
            else:
                del row[c]


def rref(matrix: Sequence[dict]):
    """Reduced row echelon form of sparse rows {column index: value}.

    Returns (rows, pivot_columns): the non-zero reduced rows in order of
    their pivot columns, each with a 1 at its own pivot column and no entry
    at any other pivot column. Input is not modified.

    Rows are inserted one at a time: an incoming row is cleared at the
    existing pivot columns, pivots on its smallest remaining column, and
    that column is then cleared from the existing pivot rows, so the rows
    held stay fully reduced after every insertion.
    """
    by_pivot = {}
    for source in matrix:
        row = {c: v for c, v in source.items() if v}
        # a pivot row is zero at every other pivot column, so clearing one
        # pivot column brings back none that was cleared before
        for pc in [c for c in row if c in by_pivot]:
            _subtract(row, row[pc], by_pivot[pc])
        if not row:
            continue
        col = min(row)
        pv = row[col]
        if pv != 1:
            pv = Fraction(pv)
            row = {c: _as_scalar(v / pv) for c, v in row.items()}
        for prow in by_pivot.values():
            if col in prow:
                _subtract(prow, prow[col], row)
        by_pivot[col] = row
    pivots = sorted(by_pivot)
    return [by_pivot[c] for c in pivots], pivots


def _sparse_rows(columns: Sequence[dict]):
    """Sorted row keys, and one sparse row {column index: value} per key
    that holds the columns' non-zero entries at that key."""
    keys = sorted(set().union(*columns))
    index = {k: i for i, k in enumerate(keys)}
    rows = [{} for _ in keys]
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows[index[k]][j] = v
    return keys, rows


def rank(columns: Sequence[dict]) -> int:
    return len(rref(_sparse_rows(columns)[1])[1])


def nullspace(columns: Sequence[dict]):
    """Deterministic basis of the right kernel.

    One basis vector per free column, in column order, with that free column
    set to 1 and the other free columns to 0.
    """
    ncols = len(columns)
    red, pivots = rref(_sparse_rows(columns)[1])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = -row.get(fc, 0)
        basis.append(vec)
    return basis


def solve_min(columns: Sequence[dict], rhs: dict):
    """Solve A x = b exactly.

    Returns (x, None) with x the canonical solution, every free variable
    equal to zero; or (None, witness) when inconsistent, where witness is the
    first row key, in sorted order, whose equation the free-variables-zero
    attempt on the reduced system violates. Callers order the unknown columns
    so that this choice is the graded-lex minimal solution.
    """
    ncols = len(columns)
    keys, rows = _sparse_rows(list(columns) + [rhs])
    red, pivots = rref(rows)
    x = [0] * ncols
    for row, pc in zip(red, pivots):
        if pc < ncols:
            x[pc] = row.get(ncols, 0)
    if pivots and pivots[-1] == ncols:
        # the augmented column became a pivot: inconsistent
        for key, row in zip(keys, rows):
            lhs = sum(v * x[c] for c, v in row.items() if c < ncols)
            if lhs != row.get(ncols, 0):
                return None, key
        return None, None
    return x, None
