"""Chart transport against the paths it replaced.

`symbolic.substitute` sends a Laurent polynomial through single-term values
by mapping exponent vectors; `_substitute_oracle` below is the general
path it bypasses, kept verbatim as the oracle. The exponent maps are
compiled (`symbolic.MonomialMap`), once per ordered pair on an atlas whose
transitions are monomial; they must agree with `_substitute_monomials`,
the uncompiled body they replaced, kept verbatim, down to the int or
Fraction type of every coefficient. `substitute` now evaluates plain and
series values in one loop, and `TruncatedSeries.__pow__` takes negative
powers itself; the oracle keeps its series powers in its own verbatim
`_series_pow` and `_series_inverse`, and is compared on single-term,
polynomial and series values under positive and negative powers.

`polyvector.pushforward` moves each term once, by one `Transition.move`
call, and multiplies it by the kept images of its frame, which each
ordered pair's `polyvector.Transition` keeps on the atlas
(`ChartedSpace._moves`). It must
agree, term for term and in the same order, with `_parent_pushforward`,
the path it replaced (the signed Jacobian products of every coefficient,
then one substitution per target index tuple), and with
`_pushforward_oracle`, the loop over every target index tuple that the
sparse Jacobian columns replaced before that. A kept table lives on its
atlas, so two atlases with the same chart names never share one, and a
section search builds each frame image once.
"""
import random
import sys
from fractions import Fraction
from itertools import combinations
from itertools import product as _cartesian
from pathlib import Path
from typing import Iterable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

import poissondef
from conftest import derivative, product, series_value
from poissondef.cli import run_command
from poissondef.dsl import parse
from poissondef.errors import (ChartMismatch, NonInvertibleSubstitution,
                               ParameterMismatch)
from poissondef import complexes, polyvector
from poissondef.geometry import (Chart, ChartedSpace, hirzebruch,
                                 projective_space)
from poissondef.polyvector import (Polyvector, Transition, _acc, _sort_sign,
                                   pushforward)
from poissondef.symbolic import (LaurentPoly, MonomialMap, TruncatedSeries,
                                 monomial_map, substitute)

EXAMPLES = Path(poissondef.__file__).parent / "examples"


# ----------------------------------------------------------------------
# Oracles: the general paths, as they were before the fast paths
# ----------------------------------------------------------------------

def _series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a series whose order-zero coefficient is a monomial unit."""
    s0 = s.order_zero()
    if s0 is None or not (isinstance(s0, LaurentPoly) and s0.is_monomial_unit()):
        raise NonInvertibleSubstitution(
            "series inverse requires an invertible order-zero part")
    inv0 = s0.inverse()
    # s = s0 (1 + n) with n of positive parameter order; expand geometrically.
    one = LaurentPoly.const(s0.vars, 1)
    n = TruncatedSeries(s.params, s.cutoff,
                        {e: inv0 * c for e, c in s.terms.items()}) \
        - TruncatedSeries.const(s.params, s.cutoff, one)
    result = TruncatedSeries.const(s.params, s.cutoff, one)
    power = TruncatedSeries.const(s.params, s.cutoff, one)
    sign = 1
    for _ in range(s.cutoff):
        power = power * n
        sign = -sign
        if power.is_zero():
            break
        # `scale(sign)`, which the library no longer has
        result = result + (power if sign > 0 else -power)
    return result.map(lambda c: inv0 * c)


def _series_pow(s: TruncatedSeries, n: int, one: LaurentPoly) -> TruncatedSeries:
    if n == 0:
        return TruncatedSeries.const(s.params, s.cutoff, one)
    base = s if n > 0 else _series_inverse(s)
    result = base
    for _ in range(abs(n) - 1):
        result = result * base
    return result


def _substitute_oracle(p: LaurentPoly, assignment):
    used = [v for i, v in enumerate(p.vars)
            if any(e[i] for e in p.terms)]
    missing = [v for v in used if v not in assignment]
    if missing:
        raise ChartMismatch(f"no substitution value for {missing}")

    target_vars = None
    series_sig = None
    for v in used:
        val = assignment[v]
        if isinstance(val, LaurentPoly):
            tv = val.vars
        elif isinstance(val, TruncatedSeries):
            series_sig = (val.params, val.cutoff) if series_sig is None else series_sig
            if (val.params, val.cutoff) != series_sig:
                raise ParameterMismatch(
                    "substitution series disagree on parameters or cutoff")
            lead = next(iter(val.terms.values()), None)
            tv = lead.vars if isinstance(lead, LaurentPoly) else None
        elif isinstance(val, (int, Fraction)):
            tv = None
        else:
            raise TypeError(f"bad substitution value for {v!r}")
        if tv is not None:
            if target_vars is None:
                target_vars = tv
            elif target_vars != tv:
                raise ChartMismatch(
                    f"substitution values live on different charts: "
                    f"{target_vars} vs {tv}")
    if target_vars is None:
        target_vars = ()

    one = LaurentPoly.const(target_vars, 1)

    if series_sig is None:
        # plain Laurent substitution
        vals = {}
        for v in used:
            val = assignment[v]
            if isinstance(val, (int, Fraction)):
                val = LaurentPoly.const(target_vars, val)
            vals[v] = val
        out = LaurentPoly.zero(target_vars)
        for e, c in p.terms.items():
            term = LaurentPoly.const(target_vars, c)
            for i, v in enumerate(p.vars):
                if e[i]:
                    term = term * (vals[v] ** e[i])
            out = out + term
        return out

    params, cutoff = series_sig
    svals = {}
    for v in used:
        val = assignment[v]
        if isinstance(val, (int, Fraction)):
            val = LaurentPoly.const(target_vars, val)
        if isinstance(val, LaurentPoly):
            val = TruncatedSeries.const(params, cutoff, val)
        svals[v] = val
    out = TruncatedSeries.zero(params, cutoff)
    for e, c in p.terms.items():
        term = TruncatedSeries.const(params, cutoff,
                                     LaurentPoly.const(target_vars, c))
        for i, v in enumerate(p.vars):
            if e[i]:
                term = term * _series_pow(svals[v], e[i], one)
        out = out + term
    return out


def _substitute_monomials(p: LaurentPoly, vals: dict, target_vars: tuple):
    """`substitute` when every value is a single term c_v * x^(a_v): the term
    c * prod v^(e_v) goes to c * prod c_v^(e_v) * x^(sum e_v a_v). Terms are
    summed in p's order, as the general path sums them."""
    images = []
    for i, v in enumerate(p.vars):
        if v in vals:
            ((a, cv),) = vals[v].terms.items()
            images.append((i, a, None if cv == 1 else cv))
    zero = (0,) * len(target_vars)
    terms: dict = {}
    for e, c in p.terms.items():
        exps = zero
        for i, a, cv in images:
            k = e[i]
            if k:
                exps = tuple(x + k * y for x, y in zip(exps, a))
                if cv is not None:
                    c = c * (cv ** k if k > 0 else Fraction(cv) ** k)
        s = terms.get(exps, 0) + c
        if s:
            terms[exps] = s
        elif exps in terms:
            del terms[exps]
    out = LaurentPoly.__new__(LaurentPoly)
    out.vars, out.terms = target_vars, terms
    return out


def _pushforward_oracle(a, target_in_source, source_in_target, target_vars):
    target_vars = tuple(target_vars)
    src_vars = a.vars
    jac = []
    for tv in target_vars:
        expr = target_in_source[tv]
        if expr.vars != src_vars:
            expr = expr.with_vars(src_vars)
        jac.append([derivative(expr, sv) for sv in src_vars])
    subs_map = dict(source_in_target)
    collected: dict = {}
    for idx, coeff in a.terms.items():
        if a.degree == 0:
            _acc(collected, (), coeff)
            continue
        for targets in _cartesian(range(len(target_vars)), repeat=a.degree):
            prod = coeff
            ok = True
            for t_i, s_i in zip(targets, idx):
                entry = jac[t_i][s_i]
                if entry.is_zero():
                    ok = False
                    break
                prod = prod * entry
            if not ok:
                continue
            sidx, sign = _sort_sign(targets)
            if sign == 0:
                continue
            _acc(collected, sidx, prod * Fraction(sign))
    out_terms = {}
    for idx, coeff in collected.items():
        conv = substitute(coeff, subs_map)
        if conv.vars != target_vars:
            conv = conv.with_vars(target_vars)
        if not conv.is_zero():
            out_terms[idx] = conv
    return Polyvector(target_vars, a.degree, out_terms)


def _parent_jacobian_columns(target_in_source: Mapping[str, LaurentPoly],
                             source_vars: Iterable[str],
                             target_vars: Iterable[str]) -> list:
    """The non-zero entries of the Jacobian d(target)/d(source), one list per
    source index s of pairs (b, d(target_b)/d(source_s)) in target order."""
    source_vars = tuple(source_vars)
    exprs = []
    for tv in target_vars:
        expr = target_in_source[tv]
        if expr.vars != source_vars:
            expr = expr.with_vars(source_vars)
        exprs.append(expr)
    columns = []
    for sv in source_vars:
        column = []
        for b, expr in enumerate(exprs):
            entry = derivative(expr, sv)
            if not entry.is_zero():
                column.append((b, entry))
        columns.append(column)
    return columns


def _parent_pushforward(a: Polyvector,
                        target_in_source: Mapping[str, LaurentPoly],
                        source_in_target: Mapping[str, LaurentPoly],
                        target_vars: Iterable[str],
                        columns: list | None = None) -> Polyvector:
    """Re-express a polyvector in another chart's coordinates and frame.

    target_in_source: each target variable as a Laurent expression of the
    source variables (used for the Jacobian d(target)/d(source));
    source_in_target: each source variable as a Laurent expression of the
    target variables (used to convert coefficients at the end);
    columns: `_parent_jacobian_columns(target_in_source, a.vars, target_vars)`,
    computed here when not given.
    """
    target_vars = tuple(target_vars)
    if columns is None:
        columns = _parent_jacobian_columns(target_in_source, a.vars, target_vars)
    subs_map = dict(source_in_target)
    collected: dict = {}
    for idx, coeff in a.terms.items():
        if a.degree == 0:
            _acc(collected, (), coeff)
            continue
        # only the non-zero entries J[b][s] of each source index s
        for choice in _cartesian(*(columns[s] for s in idx)):
            sidx, sign = _sort_sign(b for b, _ in choice)
            if sign == 0:
                continue
            prod = coeff
            for _, entry in choice:
                prod = prod * entry
            _acc(collected, sidx, prod * sign)
    out_terms = {}
    for idx, coeff in collected.items():
        conv = substitute(coeff, subs_map)
        if conv.vars != target_vars:
            conv = conv.with_vars(target_vars)
        if not conv.is_zero():
            out_terms[idx] = conv
    return Polyvector(target_vars, a.degree, out_terms)


def _throwaway(space, src, dst):
    """A new `Transition` of the atlas's raw maps, sharing nothing kept."""
    return Transition(space.transitions[(src, dst)],
                      space.transitions[(dst, src)], space.chart(src).vars,
                      space.chart(dst).vars)


def _layout(x):
    """Everything that can reach a report: values and insertion orders."""
    if isinstance(x, LaurentPoly):
        return (x.vars, list(x.terms.items()))
    return (x.vars, x.degree,
            [(idx, _layout(c)) for idx, c in x.terms.items()])


def _outcome(f, *args):
    try:
        return _layout(f(*args))
    except NonInvertibleSubstitution as e:
        return ("NonInvertibleSubstitution", str(e))


# ----------------------------------------------------------------------
# Monomial substitution
# ----------------------------------------------------------------------

SOURCE = ("a", "b", "c")
TARGET = ("x", "y")

fractions = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                      st.integers(1, 4))
source_polys = st.dictionaries(
    st.tuples(*(st.integers(-3, 3) for _ in SOURCE)), fractions,
    max_size=5).map(lambda d: LaurentPoly(SOURCE, d))
# a small pool of target monomials, so that two variables often share one
monomials = st.builds(
    lambda e, c: LaurentPoly(TARGET, {e: c}),
    st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (1, -1), (2, 1)]),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]))
values = st.one_of(monomials, st.integers(-2, 2),
                   st.just(LaurentPoly.zero(TARGET)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source_polys, st.tuples(*(values for _ in SOURCE)))
def test_monomial_substitution_matches_general_path(p, vals):
    assignment = dict(zip(SOURCE, vals))
    assert _outcome(substitute, p, assignment) == \
        _outcome(_substitute_oracle, p, assignment)


def test_monomial_substitution_merges_cancels_and_raises():
    x = LaurentPoly.variable(TARGET, "x")
    y = LaurentPoly.variable(TARGET, "y")
    a, b, c = (LaurentPoly.variable(SOURCE, v) for v in SOURCE)
    p = a * a - b * b + Fraction(1, 2) * a * c - c * b + 3 * c
    # a and b to the same monomial: the first two terms cancel and the two
    # mixed terms merge into one
    assignment = {"a": x * y, "b": -(x * y), "c": x * y}
    got = substitute(p, assignment)
    assert _layout(got) == _layout(_substitute_oracle(p, assignment))
    assert got == (Fraction(3, 2) * x * x * y * y + 3 * x * y)
    # an int value, and a Fraction value
    for value in (2, Fraction(-2, 3)):
        assignment = {"a": x.inverse(), "b": value, "c": y}
        assert _layout(substitute(p, assignment)) == \
            _layout(_substitute_oracle(p, assignment))
    # a zero value under a negative power
    q = a.inverse() * b
    for zero in (0, LaurentPoly.zero(TARGET)):
        with pytest.raises(NonInvertibleSubstitution):
            substitute(q, {"a": zero, "b": y})
        with pytest.raises(NonInvertibleSubstitution):
            _substitute_oracle(q, {"a": zero, "b": y})


# ----------------------------------------------------------------------
# Substitution of polynomial and series values
# ----------------------------------------------------------------------

def _typed_value(x):
    """Values, insertion orders and scalar types of a polynomial or of a
    series of polynomials or scalars."""
    if isinstance(x, TruncatedSeries):
        return (x.params, x.cutoff,
                [(e, _typed_value(c)) for e, c in x.terms.items()])
    if isinstance(x, LaurentPoly):
        return (x.vars, [(e, c, type(c)) for e, c in x.terms.items()])
    return x, type(x)


def _typed_outcome(f, *args):
    try:
        return _typed_value(f(*args))
    except (NonInvertibleSubstitution, ValueError) as e:
        return type(e).__name__, str(e)


def _check_substitution(p, assignment):
    """`substitute` against the oracle: values, orders and errors, and scalar
    types too where a variable p uses has a value of more than one term.
    Where every such value is one term, `substitute` takes the monomial
    path, whose types the oracle's expansion loop does not keep (see
    `_check_compiled`)."""
    used = [v for i, v in enumerate(p.vars) if any(e[i] for e in p.terms)]
    if all(not isinstance(assignment[v], (LaurentPoly, TruncatedSeries))
           or isinstance(assignment[v], LaurentPoly)
           and len(assignment[v].terms) == 1 for v in used):
        assert _outcome(substitute, p, assignment) == \
            _outcome(_substitute_oracle, p, assignment)
    else:
        assert _typed_outcome(substitute, p, assignment) == \
            _typed_outcome(_substitute_oracle, p, assignment)


PARAMS = ("t",)
polynomials = st.builds(
    lambda a, b, c: LaurentPoly(TARGET, {a: c, b: -c}),
    st.sampled_from([(0, 0), (1, 0), (0, 1), (-1, 1)]),
    st.sampled_from([(1, 1), (0, -1), (2, 0)]),
    st.sampled_from([1, Fraction(1, 2), Fraction(-3)]))
series_coefficients = st.one_of(monomials, polynomials,
                                st.just(LaurentPoly.zero(TARGET)))
# an order-zero part that is a single term, so that negative powers exist,
# or one that is not
series = st.builds(
    lambda c0, c1, c2: TruncatedSeries(PARAMS, 3,
                                       {(0,): c0, (1,): c1, (2,): c2}),
    st.one_of(monomials, polynomials), series_coefficients,
    series_coefficients)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(source_polys,
       st.tuples(*(st.one_of(polynomials, monomials, st.integers(-2, 2))
                   for _ in SOURCE)))
def test_polynomial_substitution_matches_general_path(p, vals):
    """Values that are not single terms, under positive and negative
    powers: values, orders, scalar types and errors."""
    _check_substitution(p, dict(zip(SOURCE, vals)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(source_polys.filter(lambda p: p.terms),
       st.tuples(*(st.one_of(series, st.one_of(
           polynomials, monomials, st.integers(-2, 2))) for _ in SOURCE)))
def test_series_substitution_matches_general_path(p, vals):
    """Series values next to polynomial and scalar ones, under positive and
    negative powers."""
    _check_substitution(p, dict(zip(SOURCE, vals)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(series, st.integers(-3, 3).filter(bool))
def test_series_power_matches_series_pow(s, n):
    """`TruncatedSeries.__pow__` takes a negative power through the series
    inverse, as the oracle's `_series_pow` does."""
    one = LaurentPoly.const(TARGET, 1)
    assert _typed_outcome(pow, s, n) == \
        _typed_outcome(_series_pow, s, n, one)


def test_series_power_zero_and_non_invertible_raise():
    x = LaurentPoly.variable(TARGET, "x")
    s = TruncatedSeries.const(PARAMS, 3, x) + TruncatedSeries(
        PARAMS, 3, {(1,): x * x})
    assert series_value(s ** -1 * s) == series_value(TruncatedSeries.const(
        PARAMS, 3, LaurentPoly.const(TARGET, 1)))
    with pytest.raises(ValueError, match="series\\*\\*0"):
        s ** 0
    for bad in (TruncatedSeries(PARAMS, 3, {(0,): x + 1, (1,): x}),
                TruncatedSeries(PARAMS, 3, {(1,): x}),
                TruncatedSeries.const(PARAMS, 3, 2)):
        with pytest.raises(NonInvertibleSubstitution,
                           match="invertible order-zero part"):
            bad ** -1
        assert series_value(bad ** 2) == series_value(bad * bad)


# ----------------------------------------------------------------------
# Compiled monomial maps
# ----------------------------------------------------------------------

def _second_line():
    """P1 with charts V0, V1 and variable w, to multiply with `Pn(1)`."""
    w_inv = LaurentPoly(("w",), {(-1,): 1})
    return ChartedSpace("P1w", [Chart("V0", ("w",)), Chart("V1", ("w",))],
                        {("V0", "V1"): {"w": w_inv},
                         ("V1", "V0"): {"w": w_inv}})


BUILTIN = {
    **{f"P{n}": (lambda n=n: projective_space(n)) for n in (1, 2, 3)},
    **{f"F{m}": (lambda m=m: hirzebruch(m)) for m in range(6)},
    "P1xP1": lambda: product(projective_space(1), _second_line()),
}

NON_UNIT = {"a": LaurentPoly(TARGET, {(0, -1): 2}),
            "b": LaurentPoly(TARGET, {(2, 1): -1}),
            "c": LaurentPoly(TARGET, {(-1, 2): Fraction(-1, 3)})}


def _typed(x: LaurentPoly):
    """Values, insertion order and the int or Fraction type of each
    coefficient."""
    return (x.vars, [(e, c, type(c)) for e, c in x.terms.items()])


def _check_compiled(mono, assignment, p, target_vars):
    """The compiled map against the uncompiled body (values, order and
    types) and against the general expansion loop (values and order; that
    loop normalises each term's coefficient through `LaurentPoly.const`,
    so an integral product may be stored there as an int where the
    monomial body has always kept a Fraction)."""
    got = mono(p)
    assert _typed(got) == _typed(
        _substitute_monomials(p, assignment, target_vars))
    general = _substitute_oracle(p, assignment)
    if general.vars != target_vars:
        general = general.with_vars(target_vars)
    assert _layout(got) == _layout(general)
    assert all(type(c) in (int, Fraction) for c in got.terms.values())
    return got


def _lands_on(p, target_vars):
    """The variables of `substitute`'s result: those of the values of the
    variables p uses, none when it uses none."""
    return target_vars if any(any(e) for e in p.terms) else ()


@st.composite
def laurent_on(draw, vars):
    return LaurentPoly(vars, draw(st.dictionaries(
        st.tuples(*(st.integers(-3, 3) for _ in vars)),
        st.one_of(st.integers(-4, 4), fractions), max_size=6)))


@pytest.mark.parametrize("name", sorted(BUILTIN))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_transitions_match_the_oracles(name, data):
    """Every ordered pair of a builtin atlas: its compiled map, the chart
    substitution that reads it and `substitute` on the raw transition give
    the oracles' values, orders and coefficient types."""
    space = BUILTIN[name]()
    for (src, dst) in space.overlap_pairs():
        p = data.draw(laurent_on(space.chart(src).vars))
        tmap = space.transitions[(src, dst)]
        dst_vars = space.chart(dst).vars
        got = _check_compiled(space._moves[(src, dst)].mono, tmap, p,
                              dst_vars)
        assert _typed(space.substitute_chart(p, src, dst)) == _typed(got)
        assert _typed(substitute(p, tmap)) == _typed(
            _substitute_monomials(p, tmap, _lands_on(p, dst_vars)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(laurent_on(SOURCE))
def test_compiled_non_unit_map_matches_the_oracles(p):
    """Non-unit coefficients, such as a -> 2*y^-1, under negative powers
    become Fractions, as in the uncompiled body."""
    mono = monomial_map(NON_UNIT, SOURCE, TARGET)
    _check_compiled(mono, NON_UNIT, p, TARGET)
    assert _typed(substitute(p, NON_UNIT)) == _typed(
        _substitute_monomials(p, NON_UNIT, _lands_on(p, TARGET)))


def test_monomial_map_refuses_what_is_not_monomial():
    x = LaurentPoly.variable(TARGET, "x")
    y = LaurentPoly.variable(TARGET, "y")
    assert isinstance(monomial_map(NON_UNIT, SOURCE, TARGET), MonomialMap)
    for bad in ({"a": x, "b": y},                             # missing
                {**NON_UNIT, "c": x + y},                     # two terms
                {**NON_UNIT, "c": LaurentPoly.zero(TARGET)},  # no term
                {**NON_UNIT, "c": 2},                         # not a poly
                {**NON_UNIT, "c": y.with_vars(("y", "x"))}):  # other tuple
        assert monomial_map(bad, SOURCE, TARGET) is None
    # `substitute` still takes the values the compiled maps refuse
    assert substitute(LaurentPoly.variable(SOURCE, "c"),
                      {**NON_UNIT, "c": 2}) == LaurentPoly.const((), 2)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_builtin_atlases_compile_every_transition(name):
    space = BUILTIN[name]()
    assert set(space._moves) == set(space.transitions)
    assert all(isinstance(m.mono, MonomialMap) for m in space._moves.values())
    assert all(m.mono.target_vars == space.chart(dst).vars
               for (_, dst), m in space._moves.items())


def test_a_non_monomial_atlas_compiles_nothing(monkeypatch):
    """`shear` keeps the general path: no pair compiles, and its
    pushforward still substitutes as before."""
    space = parse(NON_MONOMIAL).space
    assert set(space._moves) == set(space.transitions)
    assert all(m.mono is None for m in space._moves.values())
    calls = []
    substitute_ = polyvector.substitute

    def count_substitute(*args, **kwargs):
        calls.append(None)
        return substitute_(*args, **kwargs)

    monkeypatch.setattr(polyvector, "substitute", count_substitute)
    assert _check_atlas(space, random.Random(7), low=0) > 0
    assert calls


# ----------------------------------------------------------------------
# Kept frame images
# ----------------------------------------------------------------------

NON_MONOMIAL = """
manifold shear;
chart U0 vars x y;
chart U1 vars u v;
transition U0 -> U1: x = u, y = v - u^2;
transition U1 -> U0: u = x, v = y + x^2;
poisson on U0: x * d/x ^ d/y;
submanifold normal U0: [x];
submanifold normal U1: [u];
"""


def _random_pv(rng, vars, degree, low):
    terms = {}
    for idx in combinations(range(len(vars)), degree):
        if rng.random() < 0.8:
            coeff = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(low, 2) for _ in vars)
                coeff[e] = Fraction(rng.choice([-3, -1, 1, 2]),
                                    rng.choice([1, 2]))
            terms[idx] = LaurentPoly(vars, coeff)
    return Polyvector(vars, degree, terms)


def _check_atlas(space, rng, low, per_degree=2):
    """Every ordered pair, degrees 0..min(3, dim): the atlas's pushforward,
    a throwaway transition's, the parent path and the oracle give the same
    layout."""
    checked = 0
    for (src, dst) in space.overlap_pairs():
        src_vars = space.chart(src).vars
        dst_vars = space.chart(dst).vars
        raw = (space.transitions[(dst, src)], space.transitions[(src, dst)],
               dst_vars)
        for degree in range(min(3, len(src_vars)) + 1):
            for _ in range(per_degree):
                a = _random_pv(rng, src_vars, degree, low)
                got = _layout(space.pushforward(a, src, dst))
                assert got == _layout(pushforward(
                    a, _throwaway(space, src, dst))), (src, dst, a)
                assert got == _layout(_parent_pushforward(a, *raw)), \
                    (src, dst, a)
                assert got == _layout(_pushforward_oracle(a, *raw)), \
                    (src, dst, a)
                checked += 1
    return checked


@pytest.mark.parametrize("space", [
    *(projective_space(n) for n in (1, 2, 3)),
    *(hirzebruch(m) for m in range(4)),
    product(projective_space(1), _second_line()),
], ids=lambda s: s.name)
def test_kept_frame_images_match_raw_maps(space):
    rng = random.Random(sum(map(ord, space.name)))
    assert _check_atlas(space, rng, low=-1) > 0
    # the second pass reads the kept frame images
    assert _check_atlas(space, rng, low=-1) > 0


def test_kept_frame_images_on_a_non_monomial_atlas():
    space = parse(NON_MONOMIAL).space
    rng = random.Random(5)
    for _ in range(2):
        assert _check_atlas(space, rng, low=0, per_degree=4) > 0


# ----------------------------------------------------------------------
# No table is shared between atlases
# ----------------------------------------------------------------------

def _twisted(power):
    return f"""
manifold twisted_line;
chart U0 vars z w;
chart U1 vars y u;
transition U0 -> U1: z = y^-1, w = y^{power} * u;
transition U1 -> U0: y = z^-1, u = z^{power} * w;
"""


def test_atlases_with_the_same_charts_keep_their_own_tables():
    """Two atlases with the same chart names and variables but different
    transitions, each deleted and rebuilt in turn: a rebuilt atlas tends to
    get the address of the one just freed, so a table keyed by object
    identity would hand it the other atlas's frame images."""
    rng = random.Random(11)
    probes = [_random_pv(rng, ("z", "w"), d, -1) for d in (0, 1, 2, 1, 2)]
    docs = {power: parse(_twisted(power)) for power in (2, 3)}
    results = {}
    for _ in range(3):
        for power, doc in docs.items():
            space = ChartedSpace(doc.name, doc.charts, doc.transitions)
            move = _throwaway(space, "U0", "U1")
            moved = [_layout(space.pushforward(a, "U0", "U1")) for a in probes]
            assert moved == [_layout(pushforward(a, move)) for a in probes]
            assert results.setdefault(power, moved) == moved
            del space, move
    assert results[2] != results[3]


# ----------------------------------------------------------------------
# Random polyvectors on every atlas
# ----------------------------------------------------------------------

ATLASES = {
    **{f"P{n}": (lambda n=n: projective_space(n)) for n in (1, 2, 3)},
    **{f"F{m}": (lambda m=m: hirzebruch(m)) for m in range(4)},
    "P1xP1": lambda: product(projective_space(1), _second_line()),
    "shear": lambda: parse(NON_MONOMIAL).space,
    **{f"twisted{p}": (lambda p=p: parse(_twisted(p)).space) for p in (2, 3)},
}


@st.composite
def transports(draw, space):
    """An ordered pair of the atlas and a polyvector of degree 0..3 on its
    source chart, with exponents from -2 (-1 on a variable whose value on
    the target is not a single term, so that most draws can be moved)."""
    src, dst = draw(st.sampled_from(space.overlap_pairs()))
    vars = space.chart(src).vars
    lows = [-2 if len(space.transitions[(src, dst)][v].terms) == 1 else -1
            for v in vars]
    degree = draw(st.integers(0, min(3, len(vars))))
    coeffs = st.dictionaries(
        st.tuples(*(st.integers(low, 2) for low in lows)),
        st.builds(Fraction, st.integers(-3, 3).filter(bool),
                  st.integers(1, 2)),
        min_size=1, max_size=3).map(lambda d: LaurentPoly(vars, d))
    terms = draw(st.dictionaries(
        st.sampled_from(list(combinations(range(len(vars)), degree))),
        coeffs, min_size=1, max_size=4))
    return src, dst, Polyvector(vars, degree, terms)


@pytest.mark.parametrize("name", sorted(ATLASES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_pushforward_matches_the_parent_path(name, data):
    """The atlas's kept transition and a throwaway one give the parent
    path's values and insertion orders, or raise as it does; the result is
    one the public constructor takes unchanged."""
    space = ATLASES[name]()
    for _ in range(3):  # later draws read images the first ones built
        src, dst, a = data.draw(transports(space))
        raw = (space.transitions[(dst, src)], space.transitions[(src, dst)],
               space.chart(dst).vars)
        want = _outcome(_parent_pushforward, a, *raw)
        assert _outcome(space.pushforward, a, src, dst) == want
        assert _outcome(pushforward, a, _throwaway(space, src, dst)) == want
        if want[0] == "NonInvertibleSubstitution":
            continue
        got = space.pushforward(a, src, dst)
        assert got.vars == space.chart(dst).vars
        assert all(list(idx) == sorted(set(idx)) and not c.is_zero()
                   and c.vars == got.vars for idx, c in got.terms.items())
        assert _layout(Polyvector(got.vars, got.degree, got.terms)) == \
            _layout(got)


def test_a_second_move_reads_the_kept_table():
    """A second pushforward of a polyvector gives the same result and no new
    image: the kept lists are flat, one row (tidx, e, c) per image term, and
    the second move reads the same list objects. A polyvector whose variable
    tuple orders the chart's names otherwise is refused."""
    space = projective_space(2)
    rng = random.Random(3)
    a = _random_pv(rng, ("z1", "z2"), 1, -1)
    want = _layout(space.pushforward(a, "U0", "U1"))
    kept = {pair: dict(m._images) for pair, m in space._moves.items()}
    assert _layout(space.pushforward(a, "U0", "U1")) == want
    assert {pair: m._images for pair, m in space._moves.items()} == kept
    move = space._moves[("U0", "U1")]
    assert move._images
    for idx, rows in move._images.items():
        assert rows is kept[("U0", "U1")][idx]
        assert all(len(row) == 3 and len(row[1]) == len(move.target_vars)
                   and row[2] for row in rows)
    # the same field on ("z2", "z1"), where d/z1 is index 1
    swapped = Polyvector(("z2", "z1"), 1,
                         {(1 - i,): c for (i,), c in a.terms.items()})
    with pytest.raises(ChartMismatch, match="charts differ"):
        space.pushforward(swapped, "U0", "U1")


# ----------------------------------------------------------------------
# Work done by a section search
# ----------------------------------------------------------------------

def test_section_search_builds_each_frame_image_once(monkeypatch):
    """`h0 p3_hyperplane --complex extended --bound 6` moves about 1,300
    terms. Every frame image list it needs is built once, on a table its
    atlas keeps, and never rebuilt by a later `move`; and polyvector's substitutions stay at one per moved coefficient
    plus one per image: at most 1,182 (1,885 when each target index tuple
    was substituted on every call; none since the atlas's maps are
    compiled)."""
    atlases, builds, calls = [], [], []
    init, build = ChartedSpace.__init__, Transition._build
    substitute_ = polyvector.substitute

    def record_atlas(self, *args, **kwargs):
        init(self, *args, **kwargs)
        atlases.append(self)

    def record_build(self, idx):
        builds.append((self, idx))
        return build(self, idx)

    def count_substitute(*args, **kwargs):
        calls.append(None)
        return substitute_(*args, **kwargs)

    monkeypatch.setattr(ChartedSpace, "__init__", record_atlas)
    monkeypatch.setattr(Transition, "_build", record_build)
    monkeypatch.setattr(polyvector, "substitute", count_substitute)
    run_command(["h0", f"{EXAMPLES}/p3_hyperplane.pdef",
                 "--complex", "extended", "--bound", "6"])
    kept = {id(table) for space in atlases
            for table in space._moves.values()}
    assert builds
    assert all(id(table) in kept for table, _ in builds)
    keys = [(id(table), idx) for table, idx in builds]
    assert len(keys) == len(set(keys))
    assert len(calls) <= 1182
    # moving through a built index again reads its kept list
    lists = {(id(table), idx): table._images[idx] for table, idx in builds}
    for table, idx in builds:
        table.move({(idx, (0,) * len(table.source_vars)): 1})
    assert len(builds) == len(keys)
    assert all(table._images[idx] is lists[(id(table), idx)]
               for table, idx in builds)


def test_section_search_moves_no_coefficient_through_substitute(monkeypatch):
    """Every transition of `p3_hyperplane`'s atlas is monomial, so
    `h0 p3_hyperplane --complex extended --bound 6` moves every term through
    a compiled map and never through the general `substitute`.

    The section search moves each root atom along the spanning tree once, as
    entries, and builds its sections from them. Each of the 360 ambient root
    atoms (bound 7: 120 exponents for each of 3 index pairs) is moved along
    the 3 tree edges, and each of the 36 normal root atoms along the 2 edges
    between the charts the hyperplane meets. Every edge leaves the root
    chart, where an atom is one entry, so 360 * 3 + 36 * 2 = 1,152 entries
    are moved, and no representative is transported on top (1,323 when the
    57 ambient atoms in a kernel vector's support were transported again as
    cochains). Outside the search the command pushes forward at most 9
    ambient chunks (252 when every section atom went through
    `pushforward`).

    `Transition.move` adds every moved term where it lands, the
    differential's rules add every product where it lands, a normal move
    adds each product with a one-term first-order entry where it lands,
    and `cochain_lincomb` multiplies the sections' raw terms by its scalars
    directly. The frame images of a monomial transition are built by
    exponent arithmetic, and the tensor certificates add their products in
    place, so the command calls `symbolic._product` exactly 3 times, all
    in the parser's `LaurentPoly` products (2,763 when each moved entry and
    each rule product built its own product dict, 284 when the normal
    atoms' 72 first-order products still went through it, 212 when
    `cochain_lincomb` scaled each polyvector by a constant `LaurentPoly`,
    65 when the frame images and the certificates multiplied
    `LaurentPoly`s)."""
    calls, moves, work, pushes, products = [], [], {}, [], []
    substitute_, move = polyvector.substitute, Transition.move
    search = complexes._sections_and_next_dimension
    pushforward = ChartedSpace.pushforward
    product_ = poissondef.symbolic._product

    def count_substitute(*args, **kwargs):
        calls.append(None)
        return substitute_(*args, **kwargs)

    def count_move(self, entries):
        moves.extend([self.mono is not None] * len(entries))
        return move(self, entries)

    def count_search(descriptor, part, bound, moved):
        start = len(moves)
        out = search(descriptor, part, bound, moved)
        work[part] = (len(moves) - start, len(moved))
        return out

    def count_pushforward(self, a, src, dst):
        pushes.append(None)
        return pushforward(self, a, src, dst)

    def count_product(a, b):
        products.append(None)
        return product_(a, b)

    monkeypatch.setattr(polyvector, "substitute", count_substitute)
    monkeypatch.setattr(Transition, "move", count_move)
    monkeypatch.setattr(complexes, "_sections_and_next_dimension",
                        count_search)
    monkeypatch.setattr(ChartedSpace, "pushforward", count_pushforward)
    for name, module in list(sys.modules.items()):
        if (name.startswith("poissondef")
                and getattr(module, "_product", None) is product_):
            monkeypatch.setattr(module, "_product", count_product)
    code, _ = run_command(["h0", f"{EXAMPLES}/p3_hyperplane.pdef",
                           "--complex", "extended", "--bound", "6"])
    assert code == 0
    assert calls == []
    assert moves and all(moves)
    # (moved entries, moved atoms) per part
    assert work == {"amb": (360 * 3, 360), "nor": (36 * 2, 36)}
    assert len(pushes) <= 9
    assert len(products) == 3


def test_alternating_section_searches_agree():
    runs = {}
    for _ in range(2):
        for name in ("p3_hyperplane", "p3_line"):
            out = run_command(["h0", f"{EXAMPLES}/{name}.pdef"])
            assert runs.setdefault(name, out) == out
    assert runs["p3_hyperplane"] != runs["p3_line"]


def test_validate_makes_no_substitute_call(monkeypatch):
    """Every transition of these atlases is monomial, so `validate`'s
    inverse and cocycle checks, the structure's gluing and the submanifold
    checks move everything through compiled maps."""
    calls = []
    substitute_ = poissondef.symbolic.substitute

    def count_substitute(*args, **kwargs):
        calls.append(None)
        return substitute_(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("poissondef")
                and getattr(module, "substitute", None) is substitute_):
            monkeypatch.setattr(module, "substitute", count_substitute)
    for name in ("p3_hyperplane", "f2_bivector"):
        code, _ = run_command(["validate", f"{EXAMPLES}/{name}.pdef"])
        assert code == 0
    report = product(projective_space(1), _second_line()).validate()
    assert report["pass"] and report["cocycles"]
    assert calls == []
