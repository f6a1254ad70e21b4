"""Exact linear algebra over Q used by the section-space, solver and
small-ring engines.

Input format: a matrix is a list of sparse columns, one per unknown, each a
dict {row key: value}; `solve_min` takes its right-hand side as one more
such dict. Absent keys are zero. The keys of one system must be mutually
comparable (tuples or ints). Only this module decides how a system is laid
out for elimination.

Every elimination is one forward loop, `_echelon`, over sparse vectors
{index: value} that store only non-zero entries; the largest matrices built
here have hundreds of columns and are under 1% non-zero. It adds each
vector by clearing its smallest index against the held vector pivoting
there, until the vector pivots there itself, scaled to 1, or vanishes.
`rank` counts the pivots of the columns themselves; `rref` reduces the
held rows once more from the last pivot back. The reduced row echelon form
of a matrix is unique, so the order in which rows arrive changes only the
work done, never the result: every kernel basis, solution and witness is
determined by the matrix alone.

Values are exact ints and Fractions. Dividing a row by its pivot gives an
int where the quotient is integral; a difference of Fractions stays a
Fraction even where it is integral, and compares, hashes and prints like
the int it equals.
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


def _divided(row: dict, pv) -> dict:
    """row / pv, each entry equal in value and type to
    `_as_scalar(v / Fraction(pv))`, with no Fraction where int division is
    exact."""
    if pv == -1:
        return {c: -v if type(v) is int else _as_scalar(-v)
                for c, v in row.items()}
    out = {}
    for c, v in row.items():
        if type(v) is type(pv) is int:
            q, r = divmod(v, pv)
            out[c] = Fraction(v, pv) if r else q
        else:
            out[c] = _as_scalar(v / Fraction(pv))
    return out


def _echelon(vectors) -> dict:
    """{pivot index: vector} of the sparse vectors' echelon form: each held
    vector is 1 at its pivot and has no smaller index. Input is not
    modified."""
    held = {}
    for source in vectors:
        row = {c: v for c, v in source.items() if v}
        while row:
            col = min(row)
            prow = held.get(col)
            if prow is None:
                pv = row[col]
                held[col] = row if pv == 1 else _divided(row, pv)
                break
            _subtract(row, row[col], prow)
    return held


def rref(matrix: Sequence[dict]):
    """Reduced row echelon form of sparse rows {column index: value}.

    Returns (rows, pivot_columns): the non-zero reduced rows in order of
    their pivot columns, each with a 1 at its own pivot column and no entry
    at any other pivot column. Input is not modified.
    """
    held = _echelon(matrix)
    pivots = sorted(held)
    # a reduced row is zero at every other pivot column, so clearing one
    # brings back none that was cleared before
    for pc in reversed(pivots):
        row = held[pc]
        for c in [c for c in row if c != pc and c in held]:
            _subtract(row, row[c], held[c])
    return [held[c] for c in pivots], pivots


def _sparse_rows(columns: Sequence[dict]) -> list:
    """One sparse row {column index: value} per row key, in the order the
    keys first appear, holding the columns' non-zero entries at that key."""
    rows = {}
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows.setdefault(k, {})[j] = v
    return list(rows.values())


def rank(columns: Sequence[dict]) -> int:
    return len(_echelon(columns))


def nullspace(columns: Sequence[dict]):
    """Deterministic basis of the right kernel.

    One basis vector per free column, in column order, with that free column
    set to 1 and the other free columns to 0: each reduced row puts -row[fc]
    at its pivot in the vector of each free column fc it holds.
    """
    ncols = len(columns)
    red, pivots = rref(_sparse_rows(columns))
    pivot_set = set(pivots)
    basis = {fc: [0] * ncols for fc in range(ncols) if fc not in pivot_set}
    for fc, vec in basis.items():
        vec[fc] = 1
    for row, pc in zip(red, pivots):
        for col, val in row.items():
            if col in basis:
                basis[col][pc] = -val
    return list(basis.values())


def solve_min(columns: Sequence[dict], rhs: dict):
    """Solve A x = b exactly.

    Returns (x, None) with x the canonical solution, every free variable
    equal to zero; or (None, witness) when inconsistent. Then the augmented
    column is a pivot, every other reduced row is zero there and the
    free-variables-zero attempt is x = 0, so the witness, the first row key
    in sorted order whose equation that attempt violates, is the smallest
    key with a non-zero right-hand side. Callers order the unknown columns
    so that the solution is the graded-lex minimal one.
    """
    ncols = len(columns)
    red, pivots = rref(_sparse_rows(list(columns) + [rhs]))
    if pivots and pivots[-1] == ncols:
        return None, min(k for k, v in rhs.items() if v)
    x = [0] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row.get(ncols, 0)
    return x, None
