"""Graded bracket laws, wedge algebra, and chart-change naturality.

The bracket is cross-checked against independent constructions that never
call into the bracket code itself: partial-derivative commutators for
vector fields, the biderivation form of the Poisson bracket for bivectors,
and a determinant-expansion contraction of trivectors against function
triples. The wedge laws run on the one wedge rule,
`polyvector._wedge_rule`, through `conftest.wedge`.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from conftest import derivative, wedge
from poissondef.geometry import projective_space
from poissondef.polyvector import (Polyvector, Transition, pushforward,
                                   restrict, schouten)
from poissondef.symbolic import LaurentPoly

VARS = ("x", "y", "z")

X = LaurentPoly(VARS, {(1, 0, 0): Fraction(1)})
Y = LaurentPoly(VARS, {(0, 1, 0): Fraction(1)})
Z = LaurentPoly(VARS, {(0, 0, 1): Fraction(1)})

coeffs = st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction)
exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))
polys = st.dictionaries(exps, coeffs, min_size=1, max_size=2).map(
    lambda d: LaurentPoly(VARS, d))


def pv_strategy(degree):
    idxs = list(combinations(range(len(VARS)), degree))
    return st.lists(st.tuples(st.sampled_from(idxs), polys),
                    min_size=1, max_size=len(idxs)).map(
        lambda pairs: _assemble(degree, pairs))


def _assemble(degree, pairs):
    out = Polyvector.zero(VARS, degree)
    for idx, coeff in pairs:
        out = out + Polyvector.monomial(VARS, idx, coeff)
    return out


def _random_poly(rng, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, 2) for _ in VARS)
        terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return LaurentPoly(VARS, terms)


def _random_pv(rng, degree):
    out = Polyvector.zero(VARS, degree)
    for idx in combinations(range(len(VARS)), degree):
        if rng.random() < 0.8:
            out = out + Polyvector.monomial(VARS, idx, _random_poly(rng))
    return out


def _sum_is_zero(terms):
    """Sum polyvectors treating identically-zero entries as degree-free."""
    nonzero = [t for t in terms if not t.is_zero()]
    if not nonzero:
        return True
    total = nonzero[0]
    for t in nonzero[1:]:
        total = total + t
    return total.is_zero()


def _uniform_bracket(a, b):
    """Bracket with the function-slot sign normalised to (-1)^(p-1)."""
    res = schouten(a, b)
    if b.degree == 0 and a.degree >= 1 and (a.degree - 1) % 2:
        res = -res
    elif a.degree == 0 and b.degree >= 1 and b.degree % 2 == 0:
        res = -res
    return res


def check_antisymmetry(a, b):
    p, q = a.degree, b.degree
    flip = schouten(b, a)
    if ((p - 1) * (q - 1)) % 2 == 0:
        flip = -flip
    assert (schouten(a, b) - flip).is_zero()


def check_jacobi(a, b, c):
    """[a,[b,c]] = [[a,b],c] + (-1)^((p-1)(q-1)) [b,[a,c]] for p,q,r >= 1."""
    p, q = a.degree, b.degree
    sign = Fraction(-1 if ((p - 1) * (q - 1)) % 2 else 1)
    lhs = schouten(a, schouten(b, c))
    rhs1 = schouten(schouten(a, b), c)
    rhs2 = schouten(b, schouten(a, c)) * sign
    assert _sum_is_zero([lhs, -rhs1, -rhs2])


def check_leibniz(a, b, c):
    """[a, b^c] = [a,b]^c + (-1)^((p-1) q) b^[a,c] for p,q,r >= 1."""
    p, q = a.degree, b.degree
    sign = Fraction(-1 if ((p - 1) * q) % 2 else 1)
    lhs = schouten(a, wedge(b, c))
    rhs = wedge(schouten(a, b), c) + wedge(b, schouten(a, c)) * sign
    assert (lhs - rhs).is_zero()


def run_bracket_property_suite(ncases=200, seed=20260823):
    """Seeded randomised battery of the graded bracket laws.

    Each case draws three multivectors of positive degree and checks graded
    antisymmetry, the graded Jacobi identity, and the graded Leibniz rule
    over the wedge product. Returns the number of cases exercised.
    """
    rng = random.Random(seed)
    done = 0
    while done < ncases:
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        r = rng.randint(1, 2)
        a, b, c = _random_pv(rng, p), _random_pv(rng, q), _random_pv(rng, r)
        check_antisymmetry(a, b)
        check_jacobi(a, b, c)
        check_leibniz(a, b, c)
        done += 1
    return done


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_bracket_antisymmetry_all_degrees(p, q, data):
    a = data.draw(pv_strategy(p))
    b = data.draw(pv_strategy(q))
    check_antisymmetry(a, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2), st.data())
def test_bracket_jacobi_positive_degrees(p, q, r, data):
    a = data.draw(pv_strategy(p))
    b = data.draw(pv_strategy(q))
    c = data.draw(pv_strategy(r))
    check_jacobi(a, b, c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2), st.data())
def test_bracket_leibniz_over_wedge(p, q, r, data):
    a = data.draw(pv_strategy(p))
    b = data.draw(pv_strategy(q))
    c = data.draw(pv_strategy(r))
    check_leibniz(a, b, c)


def test_seeded_property_suite_smoke():
    assert run_bracket_property_suite(ncases=40, seed=11) == 40


def test_uniform_sign_extension_full_jacobi():
    """With the function-slot sign normalised, the graded Jacobi identity
    holds in every degree combination, including function arguments."""
    rng = random.Random(23)
    checked = 0
    while checked < 150:
        degs = [rng.randint(0, 3) for _ in range(3)]
        if sum(1 for d in degs if d == 0) > 1:
            continue
        p, q, _ = degs
        a, b, c = (_random_pv(rng, d) for d in degs)
        sign = Fraction(-1 if ((p - 1) * (q - 1)) % 2 else 1)
        lhs = _uniform_bracket(a, _uniform_bracket(b, c))
        rhs1 = _uniform_bracket(_uniform_bracket(a, b), c)
        rhs2 = _uniform_bracket(b, _uniform_bracket(a, c)) * sign
        assert _sum_is_zero([lhs, -rhs1, -rhs2])
        checked += 1


# — independent oracles ------------------------------------------------------

def _apply_vf(vf, f):
    out = LaurentPoly(VARS, {})
    for idx, coeff in vf.terms.items():
        out = out + coeff * derivative(f, VARS[idx[0]])
    return out


def _poisson_bracket(lam, f, g):
    out = LaurentPoly(VARS, {})
    for (i, j), coeff in lam.terms.items():
        out = out + coeff * (derivative(f, VARS[i]) * derivative(g, VARS[j])
                             - derivative(f, VARS[j]) * derivative(g, VARS[i]))
    return out


def _contract_trivector(tri, f, g, h):
    out = LaurentPoly(VARS, {})
    for (i, j, k), coeff in tri.terms.items():
        rows = [[derivative(fn, VARS[i]), derivative(fn, VARS[j]),
                 derivative(fn, VARS[k])] for fn in (f, g, h)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        out = out + coeff * det
    return out


def test_vector_field_bracket_is_commutator():
    rng = random.Random(37)
    for _ in range(40):
        vx, vy = _random_pv(rng, 1), _random_pv(rng, 1)
        f = _random_poly(rng, max_terms=3)
        lhs = _apply_vf(schouten(vx, vy), f)
        rhs = _apply_vf(vx, _apply_vf(vy, f)) - _apply_vf(vy, _apply_vf(vx, f))
        assert lhs == rhs


def test_vector_field_on_function():
    rng = random.Random(41)
    for _ in range(25):
        vx = _random_pv(rng, 1)
        f = _random_poly(rng, max_terms=3)
        fv = Polyvector.from_function(f)
        assert schouten(vx, fv) == Polyvector.from_function(_apply_vf(vx, f))
        back = schouten(fv, vx)
        assert (back + Polyvector.from_function(_apply_vf(vx, f))).is_zero()


def test_bivector_function_slot_is_interior_product():
    rng = random.Random(43)
    for _ in range(25):
        lam = _random_pv(rng, 2)
        f = _random_poly(rng, max_terms=2)
        expected = Polyvector.zero(VARS, 1)
        for (i, j), coeff in lam.terms.items():
            expected = expected + Polyvector.monomial(
                VARS, (j,), coeff * derivative(f, VARS[i]))
            expected = expected - Polyvector.monomial(
                VARS, (i,), coeff * derivative(f, VARS[j]))
        assert schouten(lam, Polyvector.from_function(f)) == expected


def test_hamiltonian_field_realises_poisson_bracket():
    rng = random.Random(47)
    for _ in range(25):
        lam = _random_pv(rng, 2)
        f = _random_poly(rng)
        g = _random_poly(rng)
        ham = schouten(lam, Polyvector.from_function(f))
        assert _apply_vf(ham, g) == _poisson_bracket(lam, f, g)


def test_bivector_self_bracket_measures_jacobiator():
    """Half the self-bracket of a bivector, contracted with three function
    differentials, is minus the Jacobiator of its biderivation bracket; in
    particular the self-bracket vanishes exactly when the biderivation
    bracket satisfies the Jacobi identity."""
    rng = random.Random(53)
    seen_nonzero = 0
    trials = 0
    while seen_nonzero < 10 and trials < 300:
        trials += 1
        lam = _random_pv(rng, 2)
        tri = schouten(lam, lam)
        fgh = [_random_poly(rng) for _ in range(3)]
        jac = (_poisson_bracket(lam, _poisson_bracket(lam, fgh[0], fgh[1]), fgh[2])
               + _poisson_bracket(lam, _poisson_bracket(lam, fgh[1], fgh[2]), fgh[0])
               + _poisson_bracket(lam, _poisson_bracket(lam, fgh[2], fgh[0]), fgh[1]))
        contracted = _contract_trivector(tri, *fgh)
        assert (jac + contracted * Fraction(1, 2)).is_zero()
        if not tri.is_zero():
            seen_nonzero += 1
    assert seen_nonzero == 10

    # zero-locus equivalence on coordinate triples for a structured sample
    flat = Polyvector.monomial(VARS, (0, 1), X * Z)
    assert schouten(flat, flat).is_zero()
    jac = (_poisson_bracket(flat, _poisson_bracket(flat, X, Y), Z)
           + _poisson_bracket(flat, _poisson_bracket(flat, Y, Z), X)
           + _poisson_bracket(flat, _poisson_bracket(flat, Z, X), Y))
    assert jac.is_zero()


# — wedge algebra ------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_wedge_graded_commutativity(p, q, data):
    a = data.draw(pv_strategy(p))
    b = data.draw(pv_strategy(q))
    flip = wedge(b, a)
    if (p * q) % 2:
        flip = -flip
    assert (wedge(a, b) - flip).is_zero()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.data())
def test_wedge_associativity(p, q, r, data):
    a = data.draw(pv_strategy(p))
    b = data.draw(pv_strategy(q))
    c = data.draw(pv_strategy(r))
    assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero()


def test_wedge_odd_square_zero():
    rng = random.Random(59)
    for _ in range(20):
        vx = _random_pv(rng, 1)
        assert wedge(vx, vx).is_zero()


def test_restrict_zeroes_named_variables():
    lam = Polyvector.monomial(VARS, (0, 1), X * Z + Y)
    cut = restrict(lam, ["x"])
    assert cut == Polyvector.monomial(VARS, (0, 1), Y)
    assert restrict(lam, ["x", "y"]).is_zero()


# — chart-change naturality --------------------------------------------------

def _p2_poly(rng, vars):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, 2) for _ in vars)
        terms[e] = Fraction(rng.choice([-2, -1, 1, 2]))
    return LaurentPoly(vars, terms)


def _p2_pv(rng, vars, degree):
    out = Polyvector.zero(vars, degree)
    for idx in combinations(range(len(vars)), degree):
        if rng.random() < 0.85:
            out = out + Polyvector.monomial(vars, idx, _p2_poly(rng, vars))
    return out


def test_pushforward_respects_bracket_and_wedge():
    space = projective_space(2)
    src, dst = space.chart_names[0], space.chart_names[1]
    vars = space.chart(src).vars
    rng = random.Random(61)
    for _ in range(15):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        a, b = _p2_pv(rng, vars, p), _p2_pv(rng, vars, q)
        pa = space.pushforward(a, src, dst)
        pb = space.pushforward(b, src, dst)
        assert (space.pushforward(schouten(a, b), src, dst)
                - schouten(pa, pb)).is_zero()
        assert (space.pushforward(wedge(a, b), src, dst)
                - wedge(pa, pb)).is_zero()


def test_pushforward_composes_along_charts():
    space = projective_space(2)
    names = space.chart_names
    vars = space.chart(names[0]).vars
    rng = random.Random(67)
    for _ in range(10):
        a = _p2_pv(rng, vars, rng.randint(1, 2))
        step = space.pushforward(space.pushforward(a, names[0], names[1]),
                                 names[1], names[2])
        direct = space.pushforward(a, names[0], names[2])
        assert (step - direct).is_zero()
        back = space.pushforward(space.pushforward(a, names[0], names[1]),
                                 names[1], names[0])
        assert (back - a).is_zero()


def test_pushforward_identity_map_fixes_polyvector():
    rng = random.Random(71)
    ident = {v: LaurentPoly(VARS, {tuple(int(w == v) for w in VARS): Fraction(1)})
             for v in VARS}
    a = _random_pv(rng, 2)
    assert pushforward(a, Transition(ident, ident, VARS, VARS)) == a


def test_monomial_takes_indices_once():
    """The indices may be a one-shot iterable: a repeated index gives the
    zero polyvector of the degree it was asked for."""
    for indices in ((0, 0), [0, 0], (i for i in (0, 0))):
        zero = Polyvector.monomial(VARS, indices, X)
        assert zero.is_zero() and zero.degree == 2
    got = Polyvector.monomial(VARS, (i for i in (2, 0)), X)
    assert got == Polyvector.monomial(VARS, (2, 0), X)
    assert got.terms == {(0, 2): -X}
