"""The one Schouten bracket against verbatim copies of the two it replaced.

The bracket's signs are written once, in `polyvector._bracket_rule`, which
`polyvector._ruled` applies to raw terms. `schouten` is that rule on
polyvectors, and submanifold extraction's division rule and tensor
certificate take their brackets on raw terms by `polyvector._raw_bracket`.
Kept here as they were before, verbatim but for their names:

- `schouten`, which wrote the bracket's product loop over `LaurentPoly`
  coefficients itself, and took a function against a polyvector through
  graded antisymmetry;
- `geometry._bracket`, the certificate's [Λ, x] for a function or a vector
  field x on raw terms.

The new bracket must give the same index keys in the same order, the same
terms in the same order and the same int or Fraction type of every
coefficient. The draws are pairs on two and three variables, of every
degree 0-3 against every degree 0-3 (a function against an odd degree,
and bivectors against functions and vector fields, among them), with
Laurent exponents -1..3 and int and Fraction coefficients from small pools,
so that products cancel; and the brackets the shipped files ask for: the
Jacobi bracket of every chart's structure and the certificate's brackets
of every shipped submanifold.

The count tests check that the Jacobi check, `deformation.series_schouten`,
the tensor certificate, the division rule of `extract_submanifold` and the
differential each reach `polyvector._bracket_rule`, and that the tensor
certificate and the differential each reach `polyvector._wedge_rule`, the
one wedge, so no second body can come back unnoticed.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from poissondef.complexes import build_complex
from poissondef.deformation import jacobi_residual
from poissondef.dsl import parse
from poissondef import geometry
from poissondef.geometry import (check_poisson_manifold, extract_submanifold,
                                 verify_submanifold_tensors)
from poissondef.polyvector import (Polyvector, _acc, _raw_bracket,
                                   _sort_sign, schouten)
from poissondef.symbolic import LaurentPoly, _add_product, _derivative
from conftest import derivative, monomial_probes
from test_front_end_oracle import TEXTS, _patch_everywhere

VARS = ("x", "y", "z")


# ----------------------------------------------------------------------
# The replaced brackets, verbatim
# ----------------------------------------------------------------------

def parent_schouten(a: Polyvector, b: Polyvector) -> Polyvector:
    """Graded bracket of multivector fields (convention in module docstring)."""
    a._check(b, same_degree=False)
    p, q = a.degree, b.degree
    if p == 0 and q == 0:
        return Polyvector.zero(a.vars, 0)
    if p == 0:
        # [f, Q] = -(-1)^((0-1)(q-1)) [Q, f] = (-1)^q [Q, f]
        res = parent_schouten(b, a)
        return res if q % 2 == 0 else -res
    vars = a.vars
    out_terms: dict = {}
    if q == 0:
        for ia, f in a.terms.items():
            g = b.terms.get((), None)
            if g is None:
                continue
            for kpos, ik in enumerate(ia):
                dg = derivative(g, vars[ik])
                if dg.is_zero():
                    continue
                coeff = f * dg
                if kpos % 2:
                    coeff = -coeff
                _acc(out_terms, ia[:kpos] + ia[kpos + 1:], coeff)
        return Polyvector._valid(vars, p - 1, out_terms)
    pref = -1 if (p - 1) % 2 else 1
    for ia, f in a.terms.items():
        for ib, g in b.terms.items():
            for kpos, ik in enumerate(ia):
                dg = derivative(g, vars[ik])
                if dg.is_zero():
                    continue
                idx, sign = _sort_sign(ia[:kpos] + ia[kpos + 1:] + ib)
                if sign == 0:
                    continue
                s = pref * sign * (-1 if kpos % 2 else 1)
                _acc(out_terms, idx, f * dg * s)
            for lpos, jl in enumerate(ib):
                df = derivative(f, vars[jl])
                if df.is_zero():
                    continue
                idx, sign = _sort_sign(ia + ib[:lpos] + ib[lpos + 1:])
                if sign == 0:
                    continue
                s = sign * (1 if lpos % 2 else -1)
                _acc(out_terms, idx, g * df * s)
    return Polyvector._valid(vars, p + q - 1, out_terms)


def parent_bracket(lam: dict, x: dict) -> dict:
    """[Λ, x] as {index tuple: terms}, for a bivector Λ and a function or a
    vector field x given by their raw terms {idx: terms}: the products of
    `schouten`, in its order, each added by `symbolic._add_product`, and an
    index whose terms cancel deleted, as `polyvector._acc` deletes it. So
    the index tuples come in `schouten`'s order, and restricting them in
    turn meets a pole where `restrict` meets it."""
    acc = {}

    def add(idx, a, b, sign):
        terms = acc.get(idx)
        if terms is None:
            terms = acc[idx] = {}
        _add_product(terms, a, {e: c * sign for e, c in b.items()})
        if not terms:
            del acc[idx]

    for J, f in lam.items():
        for I, g in x.items():
            # the bracket with a function has no prefactor (-1)^(p-1)
            pref = -1 if I else 1
            for k, j in enumerate(J):
                dg = _derivative(g, j)
                idx, sign = _sort_sign(J[:k] + J[k + 1:] + I)
                if dg and sign:
                    add(idx, f, dg, -pref * sign if k % 2 else pref * sign)
            for k, j in enumerate(I):
                df = _derivative(f, j)
                idx, sign = _sort_sign(J + I[:k] + I[k + 1:])
                if df and sign:
                    add(idx, g, df, sign if k % 2 else -sign)
    return acc


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def _nested(raw: dict) -> list:
    """{idx: terms} as lists, in order, with each coefficient's type."""
    return [(idx, [(e, c, type(c)) for e, c in terms.items()])
            for idx, terms in raw.items()]


def _raw(pv: Polyvector) -> dict:
    return {idx: f.terms for idx, f in pv.terms.items()}


def assert_same_bracket(a: Polyvector, b: Polyvector):
    new, old = schouten(a, b), parent_schouten(a, b)
    assert (new.vars, new.degree) == (old.vars, old.degree)
    assert _nested(_raw(new)) == _nested(_raw(old))
    if a.degree == 2 and b.degree <= 1:
        assert _nested(_raw_bracket(_raw(a), _raw(b))) == _nested(
            parent_bracket(_raw(a), _raw(b)))


# ----------------------------------------------------------------------
# Random pairs
# ----------------------------------------------------------------------

SCALARS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2),
                           Fraction(2, 3), Fraction(-3, 2)])


def polyvectors(vars: tuple, degree: int):
    n = len(vars)
    coefficients = st.dictionaries(
        st.tuples(*[st.integers(-1, 3)] * n), SCALARS, min_size=1,
        max_size=3).map(lambda terms: LaurentPoly(vars, terms))
    return st.dictionaries(
        st.sampled_from(list(combinations(range(n), degree))), coefficients,
        max_size=3).map(lambda terms: Polyvector(vars, degree, terms))


@pytest.mark.parametrize("p, q", [(p, q) for p in range(4)
                                  for q in range(4)])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_schouten_matches_the_parent_body(p, q, data):
    vars = VARS[:data.draw(st.integers(max(2, p, q), 3))]
    a = data.draw(polyvectors(vars, p))
    b = data.draw(polyvectors(vars, q))
    assert_same_bracket(a, b)
    assert_same_bracket(b, a)
    assert_same_bracket(a, a)


# ----------------------------------------------------------------------
# The shipped brackets
# ----------------------------------------------------------------------

def test_shipped_brackets_match_the_parent_bodies():
    """[Λ, Λ] on every chart of every shipped file, and on every shipped
    submanifold [Λ, w_a], [Λ, T0[a][b]] and [Λ_k, F[a][g]], as extraction
    and the certificate take them."""
    brackets = 0
    for text in TEXTS.values():
        doc = parse(text)
        M = doc.manifold()
        for lam in M.bivectors.values():
            assert_same_bracket(lam, lam)
            brackets += 1
        if not doc.normal_spec:
            continue
        S = doc.submanifold()
        for name in S.present_charts():
            lam, cvars = M.bivectors[name], S.space.chart(name).vars
            fields = [LaurentPoly.variable(cvars, w) for w in S.normal[name]]
            fields += [f for row in S.structure_fields_restricted(name)
                       for f in row]
            fields += [f for (i, k), F in S.first_order.items() if k == name
                       for row in F for f in row]
            for x in fields:
                if isinstance(x, LaurentPoly):
                    x = Polyvector.from_function(x)
                assert_same_bracket(lam, x)
                brackets += 1
    assert brackets > 100


# ----------------------------------------------------------------------
# One rule behind every bracket and every wedge
# ----------------------------------------------------------------------

def _counted(monkeypatch, name):
    """The calls of the polyvector function `name` in every package module
    that binds it, counted by the caller named in the returned list."""
    calls, caller = Counter(), [None]

    def wrapper(original):
        def counted(*args):
            calls[caller[0]] += 1
            return original(*args)
        return counted

    _patch_everywhere(monkeypatch, name, wrapper)
    return calls, caller


def test_every_bracket_reaches_the_one_rule(monkeypatch):
    """The Jacobi check, the series bracket of the solver's residuals, the
    tensor certificate, extraction's division rule (with the certificate
    stubbed out) and the differential each call `polyvector._bracket_rule`,
    wrapped in every package module that binds it."""
    doc = parse(TEXTS["p2_extended"])
    M, S, lam = doc.manifold(), doc.submanifold(), doc.lambda_family()
    calls, caller = _counted(monkeypatch, "_bracket_rule")
    caller[0] = "jacobi"
    assert check_poisson_manifold(M)["pass"]
    caller[0] = "series_schouten"
    jacobi_residual(lam)
    caller[0] = "certificate"
    assert verify_submanifold_tensors(S)["pass"]
    caller[0] = "division rule"
    monkeypatch.setattr(geometry, "verify_submanifold_tensors",
                        lambda data: {"pass": True})
    extract_submanifold(M, doc.normal_spec)
    caller[0] = "differential"
    desc = build_complex("extended", manifold=M, submanifold=S)
    for probe in monomial_probes(desc, 0, 1):
        desc.differential(probe, 0)
    assert set(calls) == {"jacobi", "series_schouten", "certificate",
                          "division rule", "differential"}


def test_every_wedge_reaches_the_one_rule(monkeypatch):
    """The tensor certificate's quadratic wedge and the differential's twist
    each call `polyvector._wedge_rule`."""
    S = parse(TEXTS["p2_extended"]).submanifold()
    calls, caller = _counted(monkeypatch, "_wedge_rule")
    caller[0] = "certificate"
    assert verify_submanifold_tensors(S)["pass"]
    caller[0] = "differential"
    desc = build_complex("normal", submanifold=S)
    for probe in monomial_probes(desc, 0, 1):
        desc.differential(probe, 0)
    assert set(calls) == {"certificate", "differential"}
