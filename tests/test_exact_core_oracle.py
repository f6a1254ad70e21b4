"""The exact core's shared update loops against the copies they replaced.

A sum is kept where its key already is and a sum that cancels is dropped;
the order in which the sums are formed fixes the key order and the int or
Fraction type of every stored scalar, and so every report byte. The core
writes that update once per kind of value: `symbolic._add_into` for terms,
`symbolic._product_into` for products (behind `_product` and
`_add_product`) and `polyvector._acc` for coefficients. The bodies that
wrote it out themselves are kept here verbatim as the oracle: `_add_into`
as `complexes` had it, `LaurentPoly.__add__`, `MonomialMap.terms`,
`_product`, `_add_product`, `Polyvector.__init__` and `__add__`, `wedge`,
and `pushforward`, which built its result from raw terms by hand; the one
wedge, `polyvector._wedge_rule`, meets `wedge` through `conftest.wedge`. Every
draw below is made to cancel: exponents, indices and coefficients come
from small pools, and one operand often holds the negatives of the
other's terms.
"""

from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Iterable, Mapping

from hypothesis import given, settings, strategies as st

from conftest import wedge
from poissondef.errors import ChartMismatch, ToolkitError
from poissondef.geometry import hirzebruch, projective_space
from poissondef.polyvector import (Polyvector, Transition, _sort_sign,
                                   pushforward)
from poissondef.symbolic import (LaurentPoly, MonomialMap, _add_into,
                                 _add_product, _product)
from test_transport_oracle import _model_exact, flat_model, grouped_move


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------

def _parent_product(a: Mapping, b: Mapping) -> dict:
    """The terms of the product of two polynomials given by their terms
    {exponent tuple: coefficient}: a's terms outer, b's inner, each sum
    kept in place and a sum that cancels dropped."""
    terms: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
    return terms


def _parent_add_product(acc: dict, a: Mapping, b: Mapping):
    """acc += the product of the polynomials with terms a and b, in place,
    as adding `_product(a, b)` term by term would leave it: each sum kept
    where it is and a sum that cancels dropped. With a one-term factor
    every product term has its own exponent, so each is added where it
    lands, without building the product."""
    if len(a) != 1 and len(b) != 1:
        for e, c in _parent_product(a, b).items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]


def _parent_add_into(acc: dict, items, s=1):
    """acc += s * the (key, value) pairs `items`, in place, dropping the
    entries that cancel."""
    for key, val in items:
        v = acc.get(key, 0) + s * val
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]


class _ParentLaurentPoly:
    """Holder of `LaurentPoly.__add__` as it was."""

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._valid(self.vars, terms)


class _ParentMonomialMap:
    """Holder of `MonomialMap.terms` as it was."""

    def terms(self, p_terms: Mapping) -> dict:
        """The substituted terms of the polynomial with terms `p_terms`
        {exponent tuple: coefficient} on the source variables."""
        image = self.image
        terms: dict = {}
        for e, c in p_terms.items():
            exps, c = image(e, c)
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        return terms


class _ParentPolyvector:
    """Holder of `Polyvector.__init__` and `__add__` as they were."""

    def __init__(self, vars: Iterable[str], degree: int,
                 terms: Mapping[tuple, LaurentPoly] | None = None):
        self.vars = tuple(vars)
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError("polyvector degree must be >= 0")
        clean = {}
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if len(idx) != self.degree:
                    raise ChartMismatch(
                        f"index tuple {idx} has wrong length for degree {self.degree}")
                if any(not 0 <= i < len(self.vars) for i in idx):
                    raise ChartMismatch(f"index out of range in {idx}")
                if list(idx) != sorted(set(idx)):
                    raise ChartMismatch(f"indices must be strictly increasing: {idx}")
                if coeff.vars != self.vars:
                    coeff = coeff.with_vars(self.vars)
                if coeff.is_zero():
                    continue
                if idx in clean:
                    s = clean[idx] + coeff
                    if s.is_zero():
                        del clean[idx]
                    else:
                        clean[idx] = s
                else:
                    clean[idx] = coeff
        self.terms = clean

    def __add__(self, other: "Polyvector") -> "Polyvector":
        self._check(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            if idx in terms:
                s = terms[idx] + c
                if s.is_zero():
                    del terms[idx]
                else:
                    terms[idx] = s
            else:
                terms[idx] = c
        return Polyvector._valid(self.vars, self.degree, terms)


def _parent_wedge(a: Polyvector, b: Polyvector) -> Polyvector:
    a._check(b, same_degree=False)
    out_terms: dict = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = _sort_sign(ia + ib)
            if sign == 0:
                continue
            coeff = ca * cb * sign
            if idx in out_terms:
                s = out_terms[idx] + coeff
                if s.is_zero():
                    del out_terms[idx]
                else:
                    out_terms[idx] = s
            else:
                out_terms[idx] = coeff
    return Polyvector(a.vars, a.degree + b.degree, out_terms)


def _parent_pushforward(a: Polyvector, move: Transition) -> Polyvector:
    """Re-express a polyvector on the target chart of `move`, in its
    coordinates and frame; `a` is first brought to the source variables.

    Its terms are moved as entries, by one call of the grouped `move`
    (`grouped_move`); a target index whose terms cancel is left out.
    """
    if a.vars != move.source_vars:
        a = a.with_vars(move.source_vars)
    target_vars = move.target_vars
    moved = grouped_move(move, {(idx, e): c for idx, coeff in a.terms.items()
                                for e, c in coeff.terms.items()})
    return Polyvector._valid(target_vars, a.degree, {
        tidx: LaurentPoly._valid(target_vars, terms)
        for (tidx,), terms in moved.items() if terms})


# ----------------------------------------------------------------------
# Layouts and draws
# ----------------------------------------------------------------------

def _typed(x):
    """Keys, key order, values and the type of every scalar."""
    if isinstance(x, dict):
        return [(k, v, type(v)) for k, v in x.items()]
    if isinstance(x, LaurentPoly):
        return (x.vars, _typed(x.terms))
    return (x.vars, x.degree, [(i, _typed(c)) for i, c in x.terms.items()])


def _outcome(f, *args):
    """The layout of f(*args), or the exception it raises."""
    try:
        return _typed(f(*args))
    except ToolkitError as e:
        return type(e).__name__, str(e)


VARS = ("x", "y")
PV_VARS = ("x", "y", "z")
# integral Fractions, as sums of Fractions leave them, next to ints
SCALARS = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
           Fraction(1), Fraction(2), Fraction(-1)]


def _exponents(nvars):
    return st.tuples(*(st.integers(-1, 1) for _ in range(nvars)))


def _raw_terms(nvars=2, max_size=4):
    return st.dictionaries(_exponents(nvars), st.sampled_from(SCALARS),
                           max_size=max_size)


@st.composite
def _cancelling(draw, terms, nvars):
    """Terms that negate some of `terms`, scale others, and add their
    own."""
    out = {}
    for e, c in terms.items():
        pick = draw(st.integers(0, 2))
        if pick == 1:
            out[e] = -c
        elif pick == 2:
            out[e] = c * draw(st.sampled_from(SCALARS))
    for e, c in draw(_raw_terms(nvars)).items():
        out.setdefault(e, c)
    return out


@st.composite
def _term_pairs(draw, nvars=2):
    a = draw(_raw_terms(nvars))
    return a, draw(_cancelling(a, nvars))


def _poly(vars, terms):
    return LaurentPoly._valid(vars, dict(terms))


class _Pairs(list):
    """(index, coefficient) pairs handed to a constructor as its terms, so
    that one index may come more than once."""

    def items(self):
        return self


def _coefficients(vars):
    return _raw_terms(len(vars), 3).map(lambda t: _poly(vars, t))


@st.composite
def _polyvectors(draw, degree, vars=PV_VARS):
    idxs = list(combinations(range(len(vars)), degree))
    return Polyvector._valid(vars, degree, {
        idx: c for idx, c in draw(st.dictionaries(
            st.sampled_from(idxs), _coefficients(vars), max_size=3)).items()
        if c.terms})


def _negated_in_part(draw, pv):
    terms = {}
    for idx, c in pv.terms.items():
        pick = draw(st.integers(0, 2))
        if pick == 1:
            terms[idx] = -c
        elif pick == 2:
            terms[idx] = _poly(pv.vars, draw(_cancelling(c.terms,
                                                         len(pv.vars))))
    extra = draw(_polyvectors(pv.degree, pv.vars))
    for idx, c in extra.terms.items():
        terms.setdefault(idx, c)
    return Polyvector._valid(pv.vars, pv.degree,
                             {i: c for i, c in terms.items() if c.terms})


# ----------------------------------------------------------------------
# Terms and products
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None, derandomize=True)
@given(_term_pairs(), st.sampled_from(SCALARS))
def test_laurent_sum_matches_parent(pair, scalar):
    a, b = (_poly(VARS, t) for t in pair)
    for x, y in ((a, b), (b, a), (a, -a), (a, scalar), (a, a)):
        assert _typed(x + y) == _typed(_ParentLaurentPoly.__add__(x, y))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_term_pairs(), st.sampled_from(SCALARS + [None]))
def test_sum_into_matches_parent(pair, s):
    """Unscaled, and scaled by the caller as `complexes` scales its sums,
    also by s = Fraction(1), which makes each added value a Fraction."""
    acc, items = pair
    got, want = dict(acc), dict(acc)
    if s is None:
        _add_into(got, items.items())
        _parent_add_into(want, items.items())
    else:
        _add_into(got, ((key, s * val) for key, val in items.items()))
        _parent_add_into(want, items.items(), s)
    assert _typed(got) == _typed(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_term_pairs(), _raw_terms(), st.booleans())
def test_products_match_parent(pair, acc, one_term):
    a, b = pair
    if one_term and a:
        a = dict([next(iter(a.items()))])
    assert _typed(_product(a, b)) == _typed(_parent_product(a, b))
    for x, y in ((a, b), (b, a)):
        got, want = dict(acc), dict(acc)
        _add_product(got, x, y)
        _parent_add_product(want, x, y)
        assert _typed(got) == _typed(want)


SOURCE = ("a", "b", "c")
# images that share exponents up to sign and scale, so that terms merge
IMAGES = [((1, 0), 1), ((1, 0), -1), ((0, 1), Fraction(1, 2)),
          ((-1, 1), 2), ((0, 0), -1), ((1, 0), Fraction(-2))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(*(st.sampled_from(IMAGES) for _ in SOURCE)),
       _raw_terms(len(SOURCE), 6))
def test_monomial_map_terms_match_parent(images, p_terms):
    vals = {v: LaurentPoly(VARS, {e: c}) for v, (e, c) in zip(SOURCE, images)}
    mono = MonomialMap(vals, SOURCE, VARS)
    assert _typed(mono.terms(p_terms)) == \
        _typed(_ParentMonomialMap.terms(mono, p_terms))


# ----------------------------------------------------------------------
# Coefficients
# ----------------------------------------------------------------------

def _constructed(cls_init, vars, degree, terms):
    out = Polyvector.__new__(Polyvector)
    cls_init(out, vars, degree, terms)
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_polyvector_constructor_matches_parent(data):
    """Repeated indices, zero coefficients and coefficients on another
    variable order go through the constructor's update."""
    degree = data.draw(st.integers(1, 2))
    pv = data.draw(_polyvectors(degree))
    other = _negated_in_part(data.draw, pv)
    pairs = _Pairs(list(pv.terms.items()) + list(other.terms.items()))
    pairs.append((tuple(range(degree)), LaurentPoly.zero(PV_VARS)))
    reordered = PV_VARS[::-1]
    pairs.extend((idx, c.with_vars(reordered))
                 for idx, c in other.terms.items())
    for terms in (pairs, dict(pairs), _Pairs(reversed(pairs))):
        assert _typed(Polyvector(PV_VARS, degree, terms)) == _typed(
            _constructed(_ParentPolyvector.__init__, PV_VARS, degree, terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_polyvector_sum_and_wedge_match_parent(data):
    p, q = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    a = data.draw(_polyvectors(p))
    b = _negated_in_part(data.draw, a)
    for x, y in ((a, b), (b, a), (a, -a)):
        assert _typed(x + y) == _typed(_ParentPolyvector.__add__(x, y))
    c = data.draw(_polyvectors(q))
    for x, y in ((a, c), (c, a), (b, c), (a + b, c), (a, a)):
        assert _typed(wedge(x, y)) == _typed(_parent_wedge(x, y))


# a transition whose forward values are not single terms, so that moved
# terms go through `substitute` and `_add_product`
_SHEAR = Transition(
    {"x": LaurentPoly(("u", "v"), {(1, 0): 1, (0, 1): 1}),
     "y": LaurentPoly(("u", "v"), {(0, 1): 1})},
    {"u": LaurentPoly(("x", "y"), {(1, 0): 1, (0, 1): -1}),
     "v": LaurentPoly(("x", "y"), {(0, 1): 1})},
    ("x", "y"), ("u", "v"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_pushforward_build_matches_parent(data):
    """The grouped parent's values, types and term order per index tuple;
    the index tuples in the order of their first term among the entries
    of `flat_model`, which is exact on these transitions."""
    spaces = [projective_space(2), hirzebruch(1)]
    moves = [_SHEAR] + [space._moves[pair] for space in spaces
                        for pair in space.overlap_pairs()]
    move = data.draw(st.sampled_from(moves))
    degree = data.draw(st.integers(0, 2))
    a = data.draw(_polyvectors(degree, move.source_vars))
    for x in (a, a + _negated_in_part(data.draw, a)):
        got = _outcome(pushforward, x, move)
        want = _outcome(_parent_pushforward, x, move)
        if isinstance(want[0], str):
            assert got == want
            continue
        entries = {(idx, e): c for idx, f in x.terms.items()
                   for e, c in f.terms.items()}
        assert _model_exact(move, entries)
        order = list(dict.fromkeys(
            tidx for tidx, _ in flat_model(move, entries)))
        assert got == (want[0], want[1],
                       sorted(want[2], key=lambda t: order.index(t[0])))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_coefficients(("x", "y")))
def test_pushforward_leaves_out_a_cancelled_index(c):
    """`_SHEAR` sends c d_x + c d_y to c' d_v: the index of d_u is moved
    with terms that all cancel, and the result leaves it out."""
    a = Polyvector(("x", "y"), 1, {(0,): c, (1,): c})
    got = _outcome(pushforward, a, _SHEAR)
    assert got == _outcome(_parent_pushforward, a, _SHEAR)
    if c.terms and not isinstance(got[0], str):
        assert [idx for idx, _ in got[2]] == [(1,)]
