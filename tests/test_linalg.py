"""The sparse-column linear algebra API against an independent matrix library.

A system is a list of sparse columns {row key: Fraction} and, for
`solve_min`, a right-hand side of the same shape; its rows are the sorted
union of the keys.  Every answer is checked against `sympy.Matrix` on the
dense matrix with those rows.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from poissondef.linalg import nullspace, rank, solve_min

# tuple row keys as the engines use them; "z" keys are reached by no column
COLUMN_KEYS = [(tag, i) for tag in ("G", "psi") for i in range(4)]
RHS_KEYS = COLUMN_KEYS + [("z", 0), ("z", 1)]

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
columns = st.lists(st.dictionaries(st.sampled_from(COLUMN_KEYS), entries,
                                   max_size=4), max_size=6)
rhs_maps = st.dictionaries(st.sampled_from(RHS_KEYS), entries, max_size=4)


def dense(cols, rhs=None):
    """Row keys and the sympy matrix (augmented by rhs when given)."""
    extra = [] if rhs is None else [rhs]
    keys = sorted(set().union(*cols, *extra))
    mat = sympy.Matrix(len(keys), len(cols) + len(extra),
                       lambda i, j: sympy.Rational(
                           (cols + extra)[j].get(keys[i], 0)))
    return keys, mat


def apply(cols, x):
    """A x as a dict over the columns' keys."""
    out = {}
    for col, v in zip(cols, x):
        for k, a in col.items():
            out[k] = out.get(k, Fraction(0)) + a * v
    return out


def to_fraction(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(columns)
def test_rank_and_nullspace_match_sympy(cols):
    keys, mat = dense(cols)
    expected_rank = mat.rank() if keys else 0
    assert rank(cols) == expected_rank
    basis = nullspace(cols)
    assert len(basis) == len(cols) - expected_rank
    for v in basis:
        assert len(v) == len(cols)
        assert all(not x for x in apply(cols, v).values())
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)
    if keys and cols:
        # same normalisation: each free column 1, the other free columns 0
        assert basis == [[to_fraction(x) for x in v] for v in mat.nullspace()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(columns, rhs_maps)
def test_solve_min_matches_sympy(cols, rhs):
    keys, aug = dense(cols, rhs)
    ncols = len(cols)
    x, witness = solve_min(cols, rhs)
    consistent = (not keys) or aug[:, :ncols].rank() == aug.rank()
    if consistent:
        assert witness is None
        assert len(x) == ncols
        residual = apply(cols, x)
        for k in set(residual) | set(rhs):
            assert residual.get(k, 0) == rhs.get(k, 0)
        return
    assert x is None
    # the witness is the first row, in key order, that the free-variables-zero
    # attempt on the reduced system violates
    red, pivots = aug.rref()
    attempt = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            attempt[pc] = to_fraction(red[r, ncols])
    residual = apply(cols, attempt)
    failing = [k for k in keys if residual.get(k, 0) != rhs.get(k, 0)]
    assert failing and witness == failing[0]


def test_empty_systems():
    assert rank([]) == 0 and rank([{}, {}]) == 0
    assert nullspace([]) == []
    assert nullspace([{}, {}]) == [[1, 0], [0, 1]]
    assert solve_min([{}, {}], {}) == ([0, 0], None)
    assert solve_min([], {("z", 0): Fraction(1)}) == (None, ("z", 0))
    assert solve_min([{("G", 0): Fraction(2)}], {("G", 0): Fraction(1)}) == (
        [Fraction(1, 2)], None)
