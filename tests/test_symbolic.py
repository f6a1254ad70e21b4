"""Ring laws, series arithmetic, and the exact scalar storage."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import derivative, series_value
from poissondef import symbolic
from poissondef.dsl import format_series
from poissondef.errors import (NegativePowerAtZero, NonInvertibleSubstitution,
                               ParameterMismatch)
from poissondef.symbolic import (LaurentPoly, MonomialMap, TruncatedSeries,
                                 combine, substitute)

VARS = ("x", "y")

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exps = st.tuples(st.integers(min_value=-2, max_value=3),
                 st.integers(min_value=-2, max_value=3))
polys = st.dictionaries(exps, coeffs, max_size=3).map(
    lambda d: LaurentPoly(VARS, d))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) - b == a
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero(VARS) == a
    assert a * LaurentPoly.const(VARS, 1) == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys)
def test_negation_and_scalar(a):
    assert -(-a) == a
    assert a * Fraction(2) == a + a
    assert (a * Fraction(0)).is_zero()


def test_monomial_unit_inverse():
    m = LaurentPoly(VARS, {(2, -1): Fraction(3, 2)})
    inv = m.inverse()
    assert (m * inv) == LaurentPoly.const(VARS, 1)
    with pytest.raises(NonInvertibleSubstitution):
        (m + LaurentPoly.const(VARS, 1)).inverse()


def test_coefficient_extraction():
    p = (LaurentPoly.variable(VARS, "x") * LaurentPoly.variable(VARS, "y")
         + LaurentPoly(VARS, {(0, 2): Fraction(5)}))
    assert p.set_zero(["x"]) == LaurentPoly(VARS, {(0, 2): Fraction(5)})
    assert not p.has_negative_exponent()
    assert LaurentPoly(VARS, {(-1, 0): 1}).has_negative_exponent()


def test_series_arithmetic():
    params = ("t1", "t2")
    x = LaurentPoly.variable(VARS, "x")
    a = TruncatedSeries(params, 3, {(1, 0): x, (0, 1): x * x})
    b = TruncatedSeries(params, 3, {(1, 0): x})
    prod_series = a * b
    assert prod_series.coefficient((2, 0)) == x * x
    assert prod_series.coefficient((1, 1)) == x * x * x
    # truncation respected: total degree 4 exceeds the cutoff
    assert (a * a * a).coefficient((3, 0)) == x * x * x
    assert (a * a).truncate(1).coefficient((2, 0)) is None
    assert a.homogeneous(1) == {(1, 0): x, (0, 1): x * x}
    assert a.homogeneous(2) == {}
    assert a.min_order() == 1


def test_series_equality_compares_every_term():
    params = ("t1", "t2")
    x = LaurentPoly.variable(VARS, "x")
    a = TruncatedSeries(params, 3, {(1, 0): x, (0, 1): x * x})
    same = TruncatedSeries(params, 3, {(0, 1): x * x, (1, 0): x})
    other = TruncatedSeries(params, 3, {(1, 0): x, (0, 1): x * x + x})
    assert series_value(a) == series_value(same)
    assert series_value(a) != series_value(other)
    # a stored zero coefficient equals an absent term
    padded = TruncatedSeries(params, 3, {(1, 0): x, (0, 1): x * x,
                                         (1, 1): LaurentPoly.zero(VARS)})
    assert series_value(padded) == series_value(a)


def test_series_parameter_mismatch():
    a = TruncatedSeries(("t",), 2, {})
    b = TruncatedSeries(("s",), 2, {})
    with pytest.raises(ParameterMismatch):
        a + b


def test_negative_power_at_zero_guard():
    space_vars = ("x",)
    p = LaurentPoly(space_vars, {(-1,): 1})
    with pytest.raises(NegativePowerAtZero):
        p.set_zero(["x"])


# ----------------------------------------------------------------------
# Integral coefficients are stored as ints: the Fraction-only oracle
# ----------------------------------------------------------------------
#
# The core stores a coefficient as an int when it is integral and as a
# Fraction otherwise. The oracle is the same core with its three storage
# sites put back to their Fraction-only versions, kept here verbatim:
# `_as_scalar`, `LaurentPoly.__mul__` and `MonomialMap.__call__`, the term
# loop of the monomial substitution. Every operation must give the same
# value and the same text in both, and the int core must store only ints
# and Fractions, never a float or a bool.

def _as_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected exact scalar, got {type(c).__name__}")


class _FractionOnlyLaurentPoly:
    """Holder of the Fraction-only `LaurentPoly.__mul__`."""

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            if not c:
                return LaurentPoly.zero(self.vars)
            out = LaurentPoly.__new__(LaurentPoly)
            out.vars = self.vars
            out.terms = {e: c * v for e, v in self.terms.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars, out.terms = self.vars, terms
        return out


class _FractionOnlyMonomialMap:
    """Holder of the Fraction-only `MonomialMap.__call__`."""

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        n = len(self.target_vars)
        terms: dict = {}
        for e, c in p.terms.items():
            moved = [0] * n
            for i, entries, cv in self.images:
                k = e[i]
                if k:
                    for j, y in entries:
                        moved[j] += k * y
                    if cv is not None:
                        c = c * cv ** k
            exps = tuple(moved)
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars, out.terms = self.target_vars, terms
        return out


@contextmanager
def fraction_only():
    """Run the core with its Fraction-only storage sites."""
    saved = (symbolic._as_scalar, MonomialMap.__call__,
             LaurentPoly.__mul__, LaurentPoly.__rmul__)
    symbolic._as_scalar = _as_scalar
    MonomialMap.__call__ = _FractionOnlyMonomialMap.__call__
    LaurentPoly.__mul__ = LaurentPoly.__rmul__ = _FractionOnlyLaurentPoly.__mul__
    try:
        yield
    finally:
        (symbolic._as_scalar, MonomialMap.__call__,
         LaurentPoly.__mul__, LaurentPoly.__rmul__) = saved


def scalars(obj):
    """Every stored scalar coefficient of a polynomial, series or scalar."""
    if isinstance(obj, LaurentPoly):
        yield from obj.terms.values()
    elif isinstance(obj, TruncatedSeries):
        for c in obj.terms.values():
            yield from scalars(c)
    else:
        yield obj


def outcome(build):
    """The value `build()` returns, or the type of the error it raises."""
    try:
        return build()
    except NonInvertibleSubstitution as e:
        return type(e)


def assert_matches_oracle(build):
    """`build()` in the int core against the same call in the oracle."""
    got = outcome(build)
    with fraction_only():
        want = outcome(build)
    if isinstance(want, type):
        assert got is want
        return
    if isinstance(want, TruncatedSeries):
        # the value, and the text a report prints of it
        assert series_value(got) == series_value(want)
        assert format_series(got, TARGET) == format_series(want, TARGET)
    else:
        assert got == want
        assert str(got) == str(want)
    assert all(type(c) is Fraction for c in scalars(want))
    assert all(type(c) in (int, Fraction) for c in scalars(got)), got


exact = st.one_of(st.integers(min_value=-4, max_value=4),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3))
nonzero_exact = exact.filter(bool)
raw_polys = st.dictionaries(exps, exact, max_size=3)
TARGET = ("u", "v")
raw_monomials = st.tuples(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), nonzero_exact)


def _monomial_value(raw):
    e, c = raw
    return LaurentPoly(TARGET, {e: c})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw_polys, raw_polys, exact, st.integers(min_value=1, max_value=3))
def test_ring_operations_match_fraction_oracle(da, db, s, n):
    def poly(d):
        return LaurentPoly(VARS, d)

    for build in (
            lambda: poly(da) + poly(db),
            lambda: poly(da) * poly(db),
            lambda: poly(da) - poly(db),
            lambda: -poly(da),
            lambda: poly(da) * s,
            lambda: s * poly(da),
            lambda: poly(da) + s,
            lambda: poly(da).inverse(),
            lambda: poly(da) ** -n,
            lambda: poly(da) ** n,
            lambda: derivative(poly(da), "x"),
            lambda: poly(da).with_vars(("y", "z", "x")),
    ):
        assert_matches_oracle(build)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw_polys, raw_monomials, raw_monomials, raw_polys, exact, exact)
def test_substitute_matches_fraction_oracle(dp, mx, my, dq, sx, sy):
    def poly(d):
        return LaurentPoly(VARS, d)

    def general():
        return LaurentPoly(TARGET, dq) + _monomial_value(mx)

    for build in (
            # monomial path: value coefficients such as 2 or -1 under a
            # negative exponent must become Fractions, not floats
            lambda: substitute(poly(dp), {"x": _monomial_value(mx),
                                          "y": _monomial_value(my)}),
            # general path, which needs a single term under negative powers
            lambda: substitute(poly(dp), {"x": general(),
                                          "y": _monomial_value(my)}),
            # scalar values
            lambda: substitute(poly(dp), {"x": sx, "y": sy}),
    ):
        assert_matches_oracle(build)


def test_substitute_int_value_under_negative_power():
    p = LaurentPoly(VARS, {(-2, 1): 3})
    got = substitute(p, {"x": LaurentPoly(TARGET, {(1, 0): 2}),
                         "y": LaurentPoly(TARGET, {(0, 1): -1})})
    assert got == LaurentPoly(TARGET, {(-2, 1): Fraction(-3, 4)})
    assert all(type(c) in (int, Fraction) for c in got.terms.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(raw_polys, raw_monomials, raw_polys)
def test_series_substitute_matches_fraction_oracle(dp, mx, dq):
    params = ("t",)

    def build():
        x = TruncatedSeries(params, 2, {(0,): _monomial_value(mx),
                                        (1,): LaurentPoly(TARGET, dq)})
        y = TruncatedSeries.const(params, 2, LaurentPoly.variable(TARGET, "v"))
        return substitute(LaurentPoly(VARS, dp), {"x": x, "y": y})

    assert_matches_oracle(build)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw_polys, raw_polys, st.one_of(exact, st.booleans()))
def test_series_scale_matches_fraction_oracle(dp, dq, s):
    """A series is scaled by its product with a constant series."""
    params = ("t1", "t2")
    assert_matches_oracle(
        lambda: TruncatedSeries(params, 3, {(1, 0): LaurentPoly(TARGET, dp),
                                            (0, 1): LaurentPoly(TARGET, dq)})
        * TruncatedSeries.const(params, 3, LaurentPoly.const(TARGET, s)))


def test_bool_is_stored_as_int():
    one = (0, 0)
    for p in (LaurentPoly.const(VARS, True), LaurentPoly(VARS, {one: True})):
        assert p.terms == {one: 1}
        assert type(p.terms[one]) is int
    scaled = LaurentPoly.const(VARS, 2) * True
    assert scaled.terms == {one: 2} and type(scaled.terms[one]) is int


# ----------------------------------------------------------------------
# A series' own operations build their results unchecked
# ----------------------------------------------------------------------
#
# `__add__`, `__neg__`, `truncate`, `map` and `combine` hand their
# terms to the series as they are. Passed through the checking constructor,
# the same terms must come out unchanged: exponents that fit, none above
# the cutoff, no zero coefficient.

PARAMS = ("t1", "t2")
poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    raw_polys.map(lambda d: LaurentPoly(VARS, d)), max_size=4)


def _checked(series):
    """The series' terms, passed through the checking constructor."""
    return TruncatedSeries(series.params, series.cutoff, series.terms)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(poly_terms, poly_terms, st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4))
def test_series_operations_build_valid_series(da, db, ca, cb, m):
    a, b = TruncatedSeries(PARAMS, ca, da), TruncatedSeries(PARAMS, cb, db)
    for got in (a + b, a - b, a - a, -a, a.truncate(m),
                a.map(lambda c: derivative(c, "x")),
                a.map(lambda c: c - c), a * b,
                combine(a, b, lambda x, y: x * y - y * x)):
        want = _checked(got)
        assert type(got.cutoff) is int
        assert (got.params, got.cutoff, got.terms) == (
            want.params, want.cutoff, want.terms)
