"""The sparse-column linear algebra API against an independent matrix library.

A system is a list of sparse columns {row key: Fraction} and, for
`solve_min`, a right-hand side of the same shape; its rows are the sorted
union of the keys.  Every answer is checked against `sympy.Matrix` on the
dense matrix with those rows.  The sparse row reduction underneath is checked
against the dense row reduction it replaced, kept here as `dense_rref`, and
against `sympy.Matrix.rref`.  The four entry points are checked against
their parent forms, kept here verbatim, on int and tuple keys.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from poissondef.linalg import (_divided, _sparse_rows, nullspace, rank, rref,
                               solve_min)
from poissondef.symbolic import _as_scalar


def dense_rref(matrix):
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


# sparse rows over at most 7 columns; explicit zeros, empty rows, columns no
# row reaches, and duplicated or rescaled rows all occur
@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 7))
    base = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries,
                                         max_size=ncols), max_size=7))
    rows = list(base)
    if base:
        for i, scale in draw(st.lists(st.tuples(
                st.integers(0, len(base) - 1),
                st.sampled_from([1, -1, 2, Fraction(1, 3)])), max_size=3)):
            rows.append({c: scale * v for c, v in base[i].items()})
    return ncols, draw(st.permutations(rows))


def densify(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(), st.data())
def test_sparse_rref_matches_dense_oracle_and_sympy(matrix, data):
    ncols, rows = matrix
    before = [dict(r) for r in rows]
    red, pivots = rref(rows)
    assert rows == before  # input untouched
    dense = densify(red, ncols)

    oracle_rows, oracle_pivots = dense_rref(densify(rows, ncols))
    assert pivots == oracle_pivots
    assert dense == oracle_rows[:len(pivots)]
    assert all(not any(r) for r in oracle_rows[len(pivots):])
    assert all(v for row in red for v in row.values())  # only non-zeros kept

    if rows:
        sym_rows, sym_pivots = sympy.Matrix(densify(rows, ncols)).rref()
        assert pivots == list(sym_pivots)
        assert dense == [[to_fraction(sym_rows[i, j]) for j in range(ncols)]
                         for i in range(len(pivots))]

    order = data.draw(st.permutations(range(len(rows))))
    assert rref([rows[i] for i in order]) == (red, pivots)


# all-int systems: the pivot division must give Fractions, never floats
int_entries = st.integers(min_value=-3, max_value=3)
int_columns = st.lists(st.dictionaries(st.sampled_from(COLUMN_KEYS),
                                       int_entries, max_size=4), max_size=6)
int_rhs_maps = st.dictionaries(st.sampled_from(RHS_KEYS), int_entries,
                               max_size=4)
int_rows = st.lists(st.dictionaries(st.integers(0, 6), int_entries,
                                    max_size=7), max_size=7)


# columns marked for the head of a system or for its tail, with int and
# Fraction entries mixed
marked_columns = st.lists(st.tuples(st.booleans(), st.dictionaries(
    st.sampled_from(COLUMN_KEYS), st.one_of(entries, int_entries),
    max_size=4)), max_size=8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(marked_columns)
def test_the_head_kernel_is_read_off_one_kernel_of_head_then_tail(marked):
    """The head's columns, in their order, go first and the others after.
    One kernel gives the rank of every column in the interleaved order
    drawn, and its vectors that are zero past the head come first and are,
    cut to the head, `nullspace` of the head alone, down to the int or
    Fraction type of every entry."""
    cols = [col for _, col in marked]
    head = [col for first, col in marked if first]
    tail = [col for first, col in marked if not first]
    kernel = nullspace(head + tail)
    assert len(kernel) == len(cols) - rank(cols)
    k = len(head)
    leading = [v for v in kernel if not any(v[k:])]
    assert kernel[:len(leading)] == leading
    want = nullspace(head)
    assert [[(x, type(x)) for x in v[:k]] for v in leading] == \
        [[(x, type(x)) for x in v] for v in want]


def exact_entries(values):
    return all(type(v) in (int, Fraction) for v in values)


def as_fractions(cols):
    return [{k: Fraction(v) for k, v in col.items()} for col in cols]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(int_rows, int_columns, int_rhs_maps)
def test_int_systems_give_exact_entries(rows, cols, rhs):
    red, pivots = rref(rows)
    assert all(exact_entries(row.values()) for row in red)
    assert (red, pivots) == rref(as_fractions(rows))

    basis = nullspace(cols)
    assert all(exact_entries(v) for v in basis)
    assert basis == nullspace(as_fractions(cols))

    x, witness = solve_min(cols, rhs)
    assert x is None or exact_entries(x)
    assert (x, witness) == solve_min(as_fractions(cols), as_fractions([rhs])[0])


def test_int_pivot_division():
    red, pivots = rref([{0: 2, 1: 3}, {0: 4, 1: 1}])
    assert (red, pivots) == ([{0: 1}, {1: 1}], [0, 1])
    red, _ = rref([{0: 2, 1: 3}])
    assert red == [{0: 1, 1: Fraction(3, 2)}]
    assert type(red[0][0]) is int and type(red[0][1]) is Fraction
    x, _ = solve_min([{("G", 0): 2}], {("G", 0): 4})
    assert x == [2] and type(x[0]) is int


# The parent forms of the four entry points, verbatim but for their names:
# `rank` and `nullspace` eliminated sorted rows through a fully reduced
# `rref` that back-substituted on every insertion, and `solve_min` searched
# the rows for its witness.

def parent_subtract(row: dict, f, other: dict) -> None:
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


def parent_rref(matrix):
    by_pivot = {}
    for source in matrix:
        row = {c: v for c, v in source.items() if v}
        # a pivot row is zero at every other pivot column, so clearing one
        # pivot column brings back none that was cleared before
        for pc in [c for c in row if c in by_pivot]:
            parent_subtract(row, row[pc], by_pivot[pc])
        if not row:
            continue
        col = min(row)
        pv = row[col]
        if pv != 1:
            pv = Fraction(pv)
            row = {c: _as_scalar(v / pv) for c, v in row.items()}
        for prow in by_pivot.values():
            if col in prow:
                parent_subtract(prow, prow[col], row)
        by_pivot[col] = row
    pivots = sorted(by_pivot)
    return [by_pivot[c] for c in pivots], pivots


def parent_sparse_rows(columns):
    keys = sorted(set().union(*columns))
    index = {k: i for i, k in enumerate(keys)}
    rows = [{} for _ in keys]
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows[index[k]][j] = v
    return keys, rows


def parent_rank(columns) -> int:
    return len(parent_rref(parent_sparse_rows(columns)[1])[1])


def parent_nullspace(columns):
    ncols = len(columns)
    red, pivots = parent_rref(parent_sparse_rows(columns)[1])
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


def parent_solve_min(columns, rhs):
    ncols = len(columns)
    keys, rows = parent_sparse_rows(list(columns) + [rhs])
    red, pivots = parent_rref(rows)
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


# pivots of -1 and of other ints, Fractions, integral Fractions and zeros
scalars = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 3, Fraction(0), Fraction(1),
                     Fraction(-1), Fraction(2), Fraction(-3)]),
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def keyed_systems(draw):
    """Columns over int or tuple keys, some empty and some repeated, and a
    right-hand side that may reach keys no column does."""
    keys = draw(st.sampled_from([
        st.integers(0, 6),
        st.tuples(st.sampled_from("Gz"), st.integers(0, 3))]))
    column = st.dictionaries(keys, scalars, max_size=5)
    cols = draw(st.lists(column, max_size=7))
    if cols:
        for i in draw(st.lists(st.integers(0, len(cols) - 1), max_size=3)):
            cols.insert(draw(st.integers(0, len(cols))), dict(cols[i]))
    return cols, draw(column)


def exact_equal(got, want):
    """Equal values, and every scalar of got an int or a Fraction."""
    def scalars_of(obj):
        if isinstance(obj, dict):
            return [s for v in obj.values() for s in scalars_of(v)]
        if isinstance(obj, (list, tuple)):
            return [s for v in obj for s in scalars_of(v)]
        return [obj] if isinstance(obj, (int, Fraction)) else []
    return got == want and all(type(s) in (int, Fraction)
                               for s in scalars_of(got))


def transpose(cols):
    out = {}
    for j, col in enumerate(cols):
        for k, v in col.items():
            out.setdefault(k, {})[j] = v
    return list(out.values())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(keyed_systems())
def test_entry_points_match_their_parent_forms(system):
    cols, rhs = system
    before = [dict(c) for c in cols], dict(rhs)
    assert exact_equal(rref(cols), parent_rref(cols))
    assert rank(cols) == parent_rank(cols) == rank(transpose(cols))
    assert exact_equal(nullspace(cols), parent_nullspace(cols))
    assert exact_equal(solve_min(cols, rhs), parent_solve_min(cols, rhs))
    assert ([dict(c) for c in cols], dict(rhs)) == before  # input untouched


def row_read_nullspace(columns):
    """`nullspace` as it was before its basis was scattered from the
    reduced rows, verbatim but for its name: each free column read every
    reduced row."""
    ncols = len(columns)
    red, pivots = rref(_sparse_rows(columns))
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


# wide and sparse: many free columns, each reached by few reduced rows
sparse_columns = st.lists(st.dictionaries(st.integers(0, 12), scalars,
                                          max_size=3), max_size=16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(keyed_systems().map(lambda system: system[0]),
                 sparse_columns))
def test_nullspace_scatters_the_basis_the_row_reads_built(cols):
    """The same vectors, in the same order, with the int or Fraction type
    of every entry."""
    before = [dict(c) for c in cols]
    got, want = nullspace(cols), row_read_nullspace(cols)
    assert [[(x, type(x)) for x in v] for v in got] == \
        [[(x, type(x)) for x in v] for v in want]
    assert [dict(c) for c in cols] == before


def test_the_empty_matrix_matches_its_parent_form():
    assert rref([]) == parent_rref([]) == ([], [])
    assert rank([]) == parent_rank([]) == 0
    assert nullspace([]) == parent_nullspace([]) == []
    assert solve_min([], {}) == parent_solve_min([], {}) == ([], None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 4), scalars, max_size=4),
       scalars.filter(bool))
def test_division_by_a_pivot_keeps_the_stored_type(row, pv):
    """Negation, exact int division and Fraction division all give what
    `_as_scalar(v / Fraction(pv))` gives, in value and in type."""
    want = {c: _as_scalar(v / Fraction(pv)) for c, v in row.items()}
    got = _divided(row, pv)
    assert [(k, v, type(v)) for k, v in got.items()] == \
        [(k, v, type(v)) for k, v in want.items()]
