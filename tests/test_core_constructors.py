"""The exact core's private constructors against the checked ones.

`LaurentPoly._valid` and `Polyvector._valid` take terms that are already
canonical and check nothing; `set_zero`, `restrict` and `schouten` build
their results through them. Those three bodies as they were, building
through the public, validating constructors, are kept here verbatim as the
oracle, with the checked `LaurentPoly.derivative` that the oracle's
`schouten` calls. The core takes derivatives of raw terms only, by
`symbolic._derivative`; `conftest.derivative` applies it to a polynomial,
and must equal the checked body. Under `checked_core` the oracle runs on
its own `set_zero` throughout, and every result must equal the core's,
values and insertion orders alike. User input keeps every check: the
public constructors still reject what does not fit.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from poissondef import polyvector
from poissondef.errors import ChartMismatch, NegativePowerAtZero
from poissondef.polyvector import Polyvector, _acc, _sort_sign
from poissondef.symbolic import LaurentPoly

from conftest import derivative
from test_transport import _layout


# ----------------------------------------------------------------------
# The checked bodies, verbatim
# ----------------------------------------------------------------------

class _CheckedLaurentPoly:
    """Holder of `derivative` and `set_zero` as they were."""

    def derivative(self, name: str) -> "LaurentPoly":
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return LaurentPoly(self.vars, terms)

    def set_zero(self, names: Iterable[str]) -> "LaurentPoly":
        """Evaluate the given variables at 0 (variable tuple unchanged)."""
        idx = [self.vars.index(n) for n in names]
        terms = {}
        for e, c in self.terms.items():
            if any(e[i] < 0 for i in idx):
                raise NegativePowerAtZero(
                    f"cannot set {names} to zero in {self}")
            if any(e[i] > 0 for i in idx):
                continue
            terms[e] = c
        return LaurentPoly(self.vars, terms)


def schouten(a: Polyvector, b: Polyvector) -> Polyvector:
    """Graded bracket of multivector fields (convention in module docstring)."""
    a._check(b, same_degree=False)
    p, q = a.degree, b.degree
    if p == 0 and q == 0:
        return Polyvector.zero(a.vars, 0)
    if p == 0:
        # [f, Q] = -(-1)^((0-1)(q-1)) [Q, f] = (-1)^q [Q, f]
        res = schouten(b, a)
        return res if q % 2 == 0 else -res
    vars = a.vars
    out_terms: dict = {}
    if q == 0:
        for ia, f in a.terms.items():
            g = b.terms.get((), None)
            if g is None:
                continue
            for kpos, ik in enumerate(ia):
                dg = _CheckedLaurentPoly.derivative(g, vars[ik])
                if dg.is_zero():
                    continue
                coeff = f * dg
                if kpos % 2:
                    coeff = -coeff
                _acc(out_terms, ia[:kpos] + ia[kpos + 1:], coeff)
        return Polyvector(vars, p - 1, out_terms)
    pref = -1 if (p - 1) % 2 else 1
    for ia, f in a.terms.items():
        for ib, g in b.terms.items():
            for kpos, ik in enumerate(ia):
                dg = _CheckedLaurentPoly.derivative(g, vars[ik])
                if dg.is_zero():
                    continue
                idx, sign = _sort_sign(ia[:kpos] + ia[kpos + 1:] + ib)
                if sign == 0:
                    continue
                s = pref * sign * (-1 if kpos % 2 else 1)
                _acc(out_terms, idx, f * dg * s)
            for lpos, jl in enumerate(ib):
                df = _CheckedLaurentPoly.derivative(f, vars[jl])
                if df.is_zero():
                    continue
                idx, sign = _sort_sign(ia + ib[:lpos] + ib[lpos + 1:])
                if sign == 0:
                    continue
                s = sign * (1 if lpos % 2 else -1)
                _acc(out_terms, idx, g * df * s)
    return Polyvector(vars, p + q - 1, out_terms)


def restrict(a: Polyvector, names: Iterable[str]) -> Polyvector:
    """Evaluate the listed variables at zero in every coefficient, keeping all
    frame components (including those along the zeroed directions)."""
    names = tuple(names)
    return Polyvector(a.vars, a.degree,
                      {i: c.set_zero(names) for i, c in a.terms.items()})


@contextmanager
def checked_core():
    """Run the core with the checked `set_zero`."""
    saved = LaurentPoly.set_zero
    LaurentPoly.set_zero = _CheckedLaurentPoly.set_zero
    try:
        yield
    finally:
        LaurentPoly.set_zero = saved


def _outcome(f, *args):
    """The layout of f(*args), or the message of the NegativePowerAtZero it
    raises."""
    try:
        return _layout(f(*args))
    except NegativePowerAtZero as e:
        return ("NegativePowerAtZero", str(e))


def _both(new, old, *args):
    """The outcome of the core's function and of the oracle's."""
    got = _outcome(new, *args)
    with checked_core():
        want = _outcome(old, *args)
    return got, want


# ----------------------------------------------------------------------
# Random polynomials and polyvectors
# ----------------------------------------------------------------------

VARS = ("x", "y", "z", "w")

# integral and proper fractions, so that products and derivatives meet
# both kinds of stored scalar
scalars = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                    st.sampled_from([1, 1, 2, 3]))
polys = st.dictionaries(st.tuples(*(st.integers(-2, 3) for _ in VARS)),
                        scalars, max_size=4).map(
    lambda d: LaurentPoly(VARS, d))
names = st.lists(st.sampled_from(VARS), unique=True, max_size=3)


@st.composite
def polyvectors(draw, degree=None):
    if degree is None:
        degree = draw(st.integers(0, 3))
    terms = draw(st.dictionaries(
        st.sampled_from(list(combinations(range(len(VARS)), degree))),
        polys, max_size=3))
    return Polyvector(VARS, degree, terms)


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

@SETTINGS
@given(polys, st.sampled_from(VARS))
def test_derivative_matches_the_checked_body(p, name):
    got, want = _both(derivative, _CheckedLaurentPoly.derivative, p, name)
    assert got == want


@SETTINGS
@given(polys, names)
def test_set_zero_matches_the_checked_body(p, zeroed):
    got, want = _both(LaurentPoly.set_zero, _CheckedLaurentPoly.set_zero,
                      p, zeroed)
    assert got == want


@SETTINGS
@given(polyvectors(), names)
def test_restrict_matches_the_checked_body(a, zeroed):
    got, want = _both(polyvector.restrict, restrict, a, zeroed)
    assert got == want


@SETTINGS
@given(polyvectors(), polyvectors())
def test_schouten_matches_the_checked_body(a, b):
    got, want = _both(polyvector.schouten, schouten, a, b)
    assert got == want


def test_set_zero_still_raises_on_a_negative_power():
    vars = ("x", "y")
    p = LaurentPoly(vars, {(1, 0): 1, (-1, 2): 3})
    with pytest.raises(NegativePowerAtZero, match="cannot set"):
        p.set_zero(["x"])
    assert p.set_zero(["y"]) == LaurentPoly(vars, {(1, 0): 1})
    # a positive power of one zeroed variable does not hide a negative
    # power of another in the same term
    with pytest.raises(NegativePowerAtZero):
        LaurentPoly(vars, {(1, -1): 1}).set_zero(["x", "y"])
    with pytest.raises(NegativePowerAtZero):
        polyvector.restrict(Polyvector(vars, 1, {(0,): p}), ["x"])


def test_public_constructors_still_reject_what_does_not_fit():
    one = LaurentPoly.const(VARS, 1)
    for idx in [(0,), (0, 1, 2), (0, 4), (-1, 0), (1, 0), (2, 2)]:
        with pytest.raises(ChartMismatch):
            Polyvector(VARS, 2, {idx: one})
    with pytest.raises(ValueError):
        Polyvector(VARS, -1)
    with pytest.raises(ChartMismatch):
        LaurentPoly(VARS, {(1, 0): 1})
    with pytest.raises(TypeError):
        LaurentPoly(VARS, {(0, 0, 0, 0): 0.5})
    # they still normalise scalars and drop zero coefficients
    (c,) = LaurentPoly(VARS, {(0, 0, 0, 0): Fraction(2, 2)}).terms.values()
    assert type(c) is int and c == 1
    assert LaurentPoly(VARS, {(0, 0, 0, 0): 0}).is_zero()
    assert Polyvector(VARS, 1, {(1,): one - one}).is_zero()
