"""Exact sparse symbolic core: Laurent polynomials over Q, truncated
multi-parameter series with pluggable coefficient carriers, and comparison
(majorant) series for convergence-style domination checks.

All arithmetic is exact. A coefficient is an int when it is integral and a
fractions.Fraction otherwise, never a float or a bool. Constructors
normalise through `_as_scalar`; sums and products need no normalising, as
int with int stays int, and a Fraction result that happens to be integral
compares, hashes and prints like the int. Every division and negative
power goes through Fraction.

A sum is kept where its key already is and a sum that cancels is dropped;
the order in which sums are formed fixes every report's term order and
scalar types. That update is written in `_add_into` for scalar terms, in
`_product_into`, the one product loop, and in `polyvector._acc` for
polyvector coefficients. Four hot copies stay inline, each measured
against a shared helper: `Transition.move`'s loop and
`complexes._move_entries`' one-term branch (through `_add_into` the
`sections` benchmark ran 4-7% slower), and
`TruncatedSeries.__add__` and `combine`, the solver's innermost loops
(a shared series update measured from no change to 4% slower on `solver`,
and adds a call and a zero test per term).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping

from .errors import (
    ChartMismatch,
    NegativePowerAtZero,
    NonInvertibleSubstitution,
    ParameterMismatch,
)


def _as_scalar(c):
    """An exact scalar as stored: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # a bool, stored as the int it equals
        return int(c)
    raise TypeError(f"expected exact scalar, got {type(c).__name__}")


def _add_into(acc: dict, items) -> dict:
    """acc, with the (key, value) pairs `items` added in place: each sum
    kept where it is and a sum that cancels dropped."""
    for key, val in items:
        v = acc.get(key, 0) + val
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]
    return acc


def _product_into(acc: dict, a: Mapping, b: Mapping) -> dict:
    """acc, with each term of the product of the polynomials with terms a
    and b {exponent tuple: coefficient} added where it lands, a's terms
    outer and b's inner: the one product loop."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return acc


def _product(a: Mapping, b: Mapping) -> dict:
    """The terms of the product of two polynomials given by their terms."""
    return _product_into({}, a, b)


def _add_product(acc: dict, a: Mapping, b: Mapping):
    """acc += the product of the polynomials with terms a and b, in place,
    as adding `_product(a, b)` term by term would leave it. With a one-term
    factor every product term has its own exponent, so each is added where
    it lands, without building the product."""
    if len(a) != 1 and len(b) != 1:
        _add_into(acc, _product(a, b).items())
    else:
        _product_into(acc, a, b)


def _derivative(terms: Mapping, i: int) -> dict:
    """The terms of the derivative along the i-th variable of the
    polynomial with terms {exponent tuple: coefficient}, in their order."""
    out = {}
    for e, c in terms.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
    return out


def _set_zero(terms: Mapping, positions) -> dict | None:
    """The terms, in their order, of the polynomial with terms {exponent
    tuple: coefficient} with the variables at `positions` set to zero, or
    None when a term has a negative power of one of them."""
    out = {}
    for e, c in terms.items():
        z = _zero_power(e, positions)
        if z < 0:
            return None
        if not z:
            out[e] = c
    return out


def _zero_power(e: tuple, positions) -> int:
    """Setting the variables at `positions` to zero keeps a term with
    exponent tuple e (0), drops it (1) or fails on a negative power (-1)."""
    z = 0
    for i in positions:
        if e[i]:
            if e[i] < 0:
                return -1
            z = 1
    return z


def _zeroed(vars: tuple, names: tuple, pos, terms: Mapping) -> dict:
    """The terms of a polynomial on vars with the variables names, at
    positions pos, set to zero by `_set_zero`. A negative power of one of
    them raises NegativePowerAtZero through `LaurentPoly.set_zero`, with
    its message."""
    kept = _set_zero(terms, pos)
    if kept is None:
        LaurentPoly._valid(vars, terms).set_zero(names)
    return kept


def grlex_key(exps: tuple) -> tuple:
    """Graded-lexicographic sort key for an exponent tuple."""
    return (sum(exps), exps)


class LaurentPoly:
    """Sparse Laurent polynomial over Q in a fixed ordered variable tuple.

    terms maps exponent tuples (ints, possibly negative) to nonzero exact
    scalars: ints where integral, Fractions otherwise.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Mapping[tuple, Fraction] | None = None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            n = len(self.vars)
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != n:
                    raise ChartMismatch(
                        f"exponent tuple {e} does not fit variables {self.vars}")
                c = _as_scalar(c)
                if c:
                    clean[e] = clean.get(e, 0) + c
                    if not clean[e]:
                        del clean[e]
        self.terms = clean

    # ---- constructors -------------------------------------------------
    @staticmethod
    def _valid(vars: tuple, terms: dict) -> "LaurentPoly":
        """A polynomial of terms that are valid as they are, as the results
        of the core's own operations are: exponent tuples that fit `vars`,
        each once, with non-zero exact scalars. Nothing is checked or
        copied."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.vars, out.terms = vars, terms
        return out

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "LaurentPoly":
        return cls(vars)

    @classmethod
    def const(cls, vars: Iterable[str], c) -> "LaurentPoly":
        vars = tuple(vars)
        c = _as_scalar(c)
        return cls(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def variable(cls, vars: Iterable[str], name: str) -> "LaurentPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ChartMismatch(f"variable {name!r} not among {vars}")
        e = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {e: 1})

    @classmethod
    def monomial(cls, vars: Iterable[str], exps: Iterable[int], coeff=1) -> "LaurentPoly":
        return cls(vars, {tuple(exps): _as_scalar(coeff)})

    # ---- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial_unit(self) -> bool:
        """True when the polynomial is a single term (hence invertible in the
        Laurent ring)."""
        return len(self.terms) == 1

    def has_negative_exponent(self, names: Iterable[str] | None = None) -> bool:
        idx = (
            range(len(self.vars))
            if names is None
            else [self.vars.index(n) for n in names]
        )
        return any(e[i] < 0 for e in self.terms for i in idx)

    # ---- ring operations ----------------------------------------------
    def _check(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ChartMismatch(
                f"variable tuples differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.vars, other)
        self._check(other)
        return LaurentPoly._valid(
            self.vars, _add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._valid(self.vars,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if (not isinstance(other, LaurentPoly)
                and isinstance(other, (int, Fraction))):
            other = LaurentPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _as_scalar(other)
            if not c:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._valid(
                self.vars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        return LaurentPoly._valid(self.vars,
                                  _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n == 0:
            return LaurentPoly.const(self.vars, 1)
        if n < 0:
            return self.inverse() ** (-n)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def inverse(self) -> "LaurentPoly":
        if not self.is_monomial_unit():
            raise NonInvertibleSubstitution(
                f"cannot invert {self}: not a monomial times a unit")
        ((e, c),) = self.terms.items()
        return LaurentPoly(self.vars, {tuple(-x for x in e): 1 / Fraction(c)})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.vars, other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- calculus -----------------------------------------------------
    def set_zero(self, names: Iterable[str]) -> "LaurentPoly":
        """Evaluate the given variables at 0 (variable tuple unchanged)."""
        terms = _set_zero(self.terms, [self.vars.index(n) for n in names])
        if terms is None:
            raise NegativePowerAtZero(f"cannot set {names} to zero in {self}")
        return LaurentPoly._valid(self.vars, terms)

    # ---- variable plumbing --------------------------------------------
    def with_vars(self, newvars: Iterable[str]) -> "LaurentPoly":
        """Re-express over a different variable tuple (matching by name).

        Dropped variables must not occur with nonzero exponent."""
        newvars = tuple(newvars)
        pos = {v: j for j, v in enumerate(newvars)}
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * len(newvars)
            for i, v in enumerate(self.vars):
                if e[i] == 0:
                    continue
                if v not in pos:
                    raise ChartMismatch(
                        f"variable {v!r} occurs but is absent from {newvars}")
                e2[pos[v]] += e[i]
            key = tuple(e2)
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly(newvars, terms)

    # ---- display ------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: grlex_key(ec[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, p in zip(self.vars, e):
                if p == 0:
                    continue
                factors.append(v if p == 1 else f"{v}^{p}")
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


# ----------------------------------------------------------------------
# Truncated multi-parameter series
# ----------------------------------------------------------------------

def _coeff_is_zero(c) -> bool:
    if type(c) is int or type(c) is Fraction:
        return not c
    if hasattr(c, "is_zero"):
        return c.is_zero()
    if isinstance(c, (int, Fraction)):  # a bool or a scalar subclass
        return not c
    raise TypeError(f"unsupported series coefficient {type(c).__name__}")


class TruncatedSeries:
    """Series in parameters, truncated at a total-degree cutoff.

    Coefficients may be exact scalars, LaurentPoly or polyvectors:
    anything supporting +, unary -, scaling by an exact scalar and an
    is_zero test. Multiplication is only defined when the carriers support
    `*` themselves; heterogeneous bilinear combinations go through `combine`.
    """

    __slots__ = ("params", "cutoff", "terms")

    def __init__(self, params: Iterable[str], cutoff: int,
                 terms: Mapping[tuple, object] | None = None):
        self.params = tuple(params)
        self.cutoff = int(cutoff)
        clean = {}
        if terms:
            n = len(self.params)
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != n:
                    raise ParameterMismatch(
                        f"exponent tuple {e} does not fit parameters {self.params}")
                if any(x < 0 for x in e):
                    raise ParameterMismatch(
                        f"negative parameter exponent in {e}")
                if sum(e) > self.cutoff:
                    continue
                if not _coeff_is_zero(c):
                    clean[e] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------
    @staticmethod
    def _valid(params: tuple, cutoff: int, terms: dict) -> "TruncatedSeries":
        """A series of terms that are valid as they are, as the results of
        its own operations are: exponents that fit the parameters, are
        non-negative and lie within the cutoff, and non-zero coefficients.
        Nothing is checked or copied."""
        out = TruncatedSeries.__new__(TruncatedSeries)
        out.params, out.cutoff, out.terms = params, cutoff, terms
        return out

    @classmethod
    def zero(cls, params, cutoff):
        return cls(params, cutoff)

    @classmethod
    def const(cls, params, cutoff, c):
        params = tuple(params)
        return cls(params, cutoff, {(0,) * len(params): c})

    # ---- helpers ------------------------------------------------------
    def _check(self, other: "TruncatedSeries"):
        if self.params != other.params:
            raise ParameterMismatch(
                f"parameter tuples differ: {self.params} vs {other.params}")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: tuple, zero=None):
        return self.terms.get(tuple(exps), zero)

    def homogeneous(self, m: int) -> dict:
        """All degree-m coefficients as a dict exponent-tuple -> carrier."""
        return {e: c for e, c in self.terms.items() if sum(e) == m}

    def order_zero(self):
        return self.terms.get((0,) * len(self.params))

    def truncate(self, m: int) -> "TruncatedSeries":
        return TruncatedSeries._valid(
            self.params, min(self.cutoff, m),
            {e: c for e, c in self.terms.items() if sum(e) <= m})

    def map(self, f: Callable) -> "TruncatedSeries":
        terms = {}
        for e, c in self.terms.items():
            v = f(c)  # may vanish
            if not _coeff_is_zero(v):
                terms[e] = v
        return TruncatedSeries._valid(self.params, self.cutoff, terms)

    def min_order(self):
        """Lowest total degree with a nonzero coefficient; None if zero."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    # ---- linear structure ---------------------------------------------
    def __add__(self, other):
        self._check(other)
        cutoff = min(self.cutoff, other.cutoff)
        terms = {e: c for e, c in self.terms.items() if sum(e) <= cutoff}
        # inline, as in `combine`: a hot loop of the solver (module docstring)
        for e, c in other.terms.items():
            if sum(e) > cutoff:
                continue
            if e in terms:
                s = terms[e] + c
                if _coeff_is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return TruncatedSeries._valid(self.params, cutoff, terms)

    def __neg__(self):
        return TruncatedSeries._valid(
            self.params, self.cutoff,
            {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "TruncatedSeries":
        s = _as_scalar(s)
        if not s:
            return TruncatedSeries._valid(self.params, self.cutoff, {})
        return TruncatedSeries._valid(
            self.params, self.cutoff,
            {e: c * s for e, c in self.terms.items()})

    # ---- multiplicative structure -------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return combine(self, other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return _series_inverse(self) ** (-n)
        result = None
        for _ in range(n):
            result = self if result is None else result * self
        if result is None:
            raise ValueError("series**0 needs a carrier unit; use const()")
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.params != other.params:
            return False
        keys = set(self.terms) | set(other.terms)
        for e in keys:
            a, b = self.terms.get(e), other.terms.get(e)
            if a is None:
                if not _coeff_is_zero(b):
                    return False
            elif b is None:
                if not _coeff_is_zero(a):
                    return False
            elif not _coeff_is_zero(a + (-b)):
                return False
        return True

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: grlex_key(ec[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (p if x == 1 else f"{p}^{x}")
                for p, x in zip(self.params, e) if x)
            body = str(c)
            if mono:
                body = f"({body})*{mono}" if ("+" in body or "-" in body[1:] or " " in body) else f"{body}*{mono}"
            parts.append(body)
        return " + ".join(parts)

    __repr__ = __str__


def combine(a: TruncatedSeries, b: TruncatedSeries, mul: Callable) -> TruncatedSeries:
    """Bilinear combination of two series via a carrier-level product."""
    a._check(b)
    cutoff = min(a.cutoff, b.cutoff)
    terms: dict = {}
    for e1, c1 in a.terms.items():
        d1 = sum(e1)
        for e2, c2 in b.terms.items():
            if d1 + sum(e2) > cutoff:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            prod = mul(c1, c2)
            # inline: a hot loop of the solver (module docstring)
            if e in terms:
                s = terms[e] + prod
                if _coeff_is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            elif not _coeff_is_zero(prod):
                terms[e] = prod
    return TruncatedSeries._valid(a.params, cutoff, terms)


# ----------------------------------------------------------------------
# Substitution
# ----------------------------------------------------------------------

def _series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a series whose order-zero coefficient is a monomial unit."""
    s0 = s.order_zero()
    if s0 is None or not (isinstance(s0, LaurentPoly) and s0.is_monomial_unit()):
        raise NonInvertibleSubstitution(
            "series inverse requires an invertible order-zero part")
    inv0 = s0.inverse()
    # s = s0 (1 + n) with n of positive parameter order; expand geometrically.
    result = power = TruncatedSeries.const(
        s.params, s.cutoff, LaurentPoly.const(s0.vars, 1))
    n = s.map(lambda c: inv0 * c) - result
    sign = 1
    for _ in range(s.cutoff):
        power = power * n
        sign = -sign
        if power.is_zero():
            break
        result = result + power.scale(sign)
    return result.map(lambda c: inv0 * c)


class MonomialMap:
    """A substitution whose every value is a single term c_v * y^(a_v) over
    one target variable tuple, compiled once: per assigned source variable
    its index, the non-zero entries (j, a_v[j]) of its exponent vector a_v
    in the target variables and its coefficient c_v (None when it is 1).
    `image` sends one term c * prod v^(e_v) to c * prod c_v^(e_v) *
    y^(sum e_v a_v); it is the one place that exponent arithmetic is
    written, and `polyvector.Transition.move` calls it per moved entry.
    Calling the map on a LaurentPoly over the source variables substitutes,
    summing the images in p's order, as the general path of `substitute`
    sums them; `terms` does the same on a polynomial given by its terms
    alone."""

    __slots__ = ("images", "target_vars")

    def __init__(self, vals: Mapping[str, LaurentPoly], source_vars: tuple,
                 target_vars: tuple):
        images = []
        for i, v in enumerate(source_vars):
            if v in vals:
                ((a, cv),) = vals[v].terms.items()
                entries = tuple((j, y) for j, y in enumerate(a) if y)
                images.append((i, entries, None if cv == 1 else cv))
        self.images = tuple(images)
        self.target_vars = target_vars

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly._valid(self.target_vars, self.terms(p.terms))

    def image(self, e: tuple, c) -> tuple:
        """The target exponent tuple and coefficient of the term c * x^e."""
        moved = [0] * len(self.target_vars)
        for i, entries, cv in self.images:
            k = e[i]
            if k:
                for j, y in entries:
                    moved[j] += k * y
                if cv is not None:
                    c = c * (cv ** k if k > 0 else Fraction(cv) ** k)
        return tuple(moved), c

    def terms(self, p_terms: Mapping) -> dict:
        """The substituted terms of the polynomial with terms `p_terms`
        {exponent tuple: coefficient} on the source variables."""
        return _add_into({}, map(self.image, p_terms.keys(), p_terms.values()))


def monomial_map(assignment: Mapping[str, object], source_vars: Iterable[str],
                 target_vars: Iterable[str]) -> MonomialMap | None:
    """The compiled `MonomialMap` of an assignment to every source variable,
    or None when a value is missing, is not a single term, or is not a
    LaurentPoly over exactly `target_vars`."""
    source_vars, target_vars = tuple(source_vars), tuple(target_vars)
    for v in source_vars:
        val = assignment.get(v)
        if (not isinstance(val, LaurentPoly) or val.vars != target_vars
                or len(val.terms) != 1):
            return None
    return MonomialMap(assignment, source_vars, target_vars)


def substitute(p: LaurentPoly, assignment: Mapping[str, object]):
    """Substitute expressions for the variables of p.

    Values may be LaurentPoly over a common target variable tuple, Fractions/
    ints, or TruncatedSeries with LaurentPoly coefficients (then the result is
    a TruncatedSeries). Variables of p carrying nonzero exponent must all be
    assigned. Negative exponents require the value to be invertible: a single
    monomial, or a series whose order-zero part is one.

    Single-term values go through a `MonomialMap` compiled for the call; a
    caller reusing one assignment compiles it once with `monomial_map`.
    """
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

    def lift(val):
        """A scalar, value or coefficient on the result's carrier."""
        if isinstance(val, (int, Fraction)):
            val = LaurentPoly.const(target_vars, val)
        if series_sig is not None and isinstance(val, LaurentPoly):
            val = TruncatedSeries.const(*series_sig, val)
        return val

    vals = {v: lift(assignment[v]) for v in used}
    if series_sig is None and all(len(val.terms) == 1
                                  for val in vals.values()):
        return MonomialMap(vals, p.vars, target_vars)(p)
    out = lift(0)
    for e, c in p.terms.items():
        term = lift(c)
        for i, v in enumerate(p.vars):
            if e[i]:
                term = term * vals[v] ** e[i]
        out = out + term
    return out


# ----------------------------------------------------------------------
# Majorant (comparison) series
# ----------------------------------------------------------------------

class MajorantSeries:
    """The classical comparison power series

        A(t) = (a/16b) * sum_{n>=1} b^n (t_1+...+t_l)^n / n^2

    used to dominate order-by-order constructions. Coefficients are exact:
    the t^h coefficient for |h| = n >= 1 is (a/16b) * b^n * multinomial(n; h) / n^2.
    """

    __slots__ = ("a", "b", "nparams")

    def __init__(self, a, b, nparams: int):
        self.a = _as_scalar(a)
        self.b = _as_scalar(b)
        if self.a <= 0 or self.b <= 0:
            raise ValueError("majorant parameters must be positive")
        self.nparams = int(nparams)

    def coefficient(self, exps: tuple) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.nparams:
            raise ParameterMismatch(
                f"exponent tuple {exps} does not fit {self.nparams} parameters")
        n = sum(exps)
        if n == 0:
            return Fraction(0)
        multi = math.factorial(n)
        for h in exps:
            multi //= math.factorial(h)
        return (Fraction(self.a) / (16 * self.b)) * self.b ** n * Fraction(multi, n * n)

    def as_series(self, params: Iterable[str], cutoff: int) -> TruncatedSeries:
        params = tuple(params)
        if len(params) != self.nparams:
            raise ParameterMismatch(
                f"{len(params)} parameter names for {self.nparams} parameters")
        terms = {}
        for e in _simplex(self.nparams, cutoff):
            c = self.coefficient(e)
            if c:
                terms[e] = c
        return TruncatedSeries(params, cutoff, terms)


def _simplex(nvars: int, bound: int):
    """All exponent tuples of length nvars with total degree <= bound."""
    if nvars == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _simplex(nvars - 1, bound - head):
            yield (head,) + tail


def dominates(p: TruncatedSeries, major: MajorantSeries, c=1) -> bool:
    """True when |p_h| < c * A_h for every parameter exponent h up to p's
    cutoff. The constant term of A vanishes, so a nonzero constant term of p
    always fails; the h = 0 comparison is skipped when p has none.
    """
    c = _as_scalar(c)
    const = p.order_zero()
    if const is not None and not _coeff_is_zero(const):
        return False
    for e in _simplex(len(p.params), p.cutoff):
        if sum(e) == 0:
            continue
        coeff = p.terms.get(e, 0)
        if not isinstance(coeff, (int, Fraction)):
            raise TypeError("domination applies to scalar-coefficient series")
        if not abs(coeff) < c * major.coefficient(e):
            return False
    return True
