"""Small exact linear algebra over Q used by the section-space, solver and
small-ring engines.

Input format: a matrix is a list of sparse columns, one per unknown, each a
dict {row key: Fraction}; `solve_min` takes its right-hand side as one more
such dict. Absent keys are zero. The rows of a system are the union of the
keys of its columns and right-hand side, in sorted order, so the keys of one
system must be mutually comparable (tuples or ints). Only this module decides
how a system is laid out for elimination.

Elimination is dense row reduction with first-nonzero pivoting, which keeps
every result deterministic; systems here stay small (hundreds of columns).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def rref(matrix: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form. Returns (rows, pivot_columns).

    Pivoting is deterministic: scan columns left to right, take the first row
    with a nonzero entry. Input is not modified.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        if pv != 1:
            rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def _dense_rows(columns: Sequence[dict]):
    """Sorted row keys, and one dense row per key that holds the columns'
    entries in column order (zero where a column lacks the key)."""
    keys = sorted(set().union(*columns))
    index = {k: i for i, k in enumerate(keys)}
    zero = Fraction(0)
    rows = [[zero] * len(columns) for _ in keys]
    for j, col in enumerate(columns):
        for k, v in col.items():
            rows[index[k]][j] = v
    return keys, rows


def rank(columns: Sequence[dict]) -> int:
    return len(rref(_dense_rows(columns)[1])[1])


def nullspace(columns: Sequence[dict]):
    """Deterministic basis of the right kernel.

    One basis vector per free column, in column order, with that free column
    set to 1 and the other free columns to 0.
    """
    ncols = len(columns)
    rows = _dense_rows(columns)[1] or [[Fraction(0)] * ncols]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
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
    keys, rows = _dense_rows(list(columns) + [rhs])
    if not rows:
        return [Fraction(0)] * ncols, None
    red, pivots = rref(rows)
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = red[r][ncols]
    if pivots and pivots[-1] == ncols:
        # the augmented column became a pivot: inconsistent
        for key, row in zip(keys, rows):
            if sum(a * v for a, v in zip(row, x)) != row[ncols]:
                return None, key
        return None, None
    return x, None
