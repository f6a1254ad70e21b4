"""Ring laws, series arithmetic, and the comparison-series machinery."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from poissondef.errors import (NegativePowerAtZero, NonInvertibleSubstitution,
                               ParameterMismatch)
from poissondef.symbolic import (LaurentPoly, MajorantSeries, TruncatedSeries,
                                 dominates)

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
    m = LaurentPoly.monomial(VARS, (2, -1), Fraction(3, 2))
    inv = m.inverse()
    assert (m * inv) == LaurentPoly.const(VARS, 1)
    with pytest.raises(NonInvertibleSubstitution):
        (m + LaurentPoly.const(VARS, 1)).inverse()


def test_coefficient_extraction():
    p = (LaurentPoly.variable(VARS, "x") * LaurentPoly.variable(VARS, "y")
         + LaurentPoly.monomial(VARS, (0, 2), Fraction(5)))
    cx = p.coefficient_of("x", 1)
    assert cx == LaurentPoly.monomial(VARS, (0, 1))
    assert p.set_zero(["x"]) == LaurentPoly.monomial(VARS, (0, 2), Fraction(5))
    assert p.total_degree() == 2
    assert not p.has_negative_exponent()
    assert LaurentPoly.monomial(VARS, (-1, 0)).has_negative_exponent()


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
    assert a == same and not a != same
    assert a != other and not a == other
    # a stored zero coefficient equals an absent term
    padded = TruncatedSeries(params, 3, {(1, 0): x, (0, 1): x * x,
                                         (1, 1): LaurentPoly.zero(VARS)})
    assert padded == a


def test_series_parameter_mismatch():
    a = TruncatedSeries(("t",), 2, {})
    b = TruncatedSeries(("s",), 2, {})
    with pytest.raises(ParameterMismatch):
        a + b


def _simplex(nvars, bound):
    return (e for e in product(range(bound + 1), repeat=nvars)
            if sum(e) <= bound)


def _materialize(major: MajorantSeries, params, cutoff):
    return TruncatedSeries(params, cutoff,
                           {e: major.coefficient(e)
                            for e in _simplex(len(params), cutoff)
                            if sum(e) > 0})


@pytest.mark.parametrize("nparams", [1, 2])
@pytest.mark.parametrize("v", [2, 3, 4])
def test_majorant_power_law(nparams, v):
    """The v-th power of the comparison series is dominated by the series
    itself scaled by (a/b)^(v-1), computed exactly through cutoff 12."""
    a, b = Fraction(5), Fraction(7)
    params = tuple(f"t{i}" for i in range(nparams))
    cutoff = 12 if nparams == 1 else 8
    major = MajorantSeries(a, b, nparams)
    ser = _materialize(major, params, cutoff)
    power = ser
    for _ in range(v - 1):
        power = power * ser
    assert dominates(power, major, (a / b) ** (v - 1))


def test_dominates_is_sharp():
    major = MajorantSeries(1, 1, 1)
    ser = _materialize(major, ("t",), 6)
    assert dominates(ser, major, 2)
    assert not dominates(ser, major, 1)  # strict comparison with itself
    too_big = ser + TruncatedSeries(("t",), 6, {(6,): Fraction(100)})
    assert not dominates(too_big, major, 2)


def test_negative_power_at_zero_guard():
    space_vars = ("x",)
    p = LaurentPoly.monomial(space_vars, (-1,))
    with pytest.raises(NegativePowerAtZero):
        p.set_zero(["x"])
