"""Exact multivector fields on a coordinate chart.

A degree-p polyvector is stored as a sparse sum of terms
coefficient * d/v_{i_1} ^ ... ^ d/v_{i_p} with strictly increasing index
tuples and LaurentPoly coefficients. The graded bracket follows the
convention in which, on decomposables with p, q >= 1,

    [f X_1^...^X_p, g Y_1^...^Y_q]
        = (-1)^(p-1) sum_k (-1)^(k+1) f (X_k g) X_1^...^skip k^...^X_p^Y_1^...^Y_q
        +            sum_l (-1)^l     g (Y_l f) X_1^...^X_p^Y_1^...^skip l^...^Y_q

while for a function g (q = 0) the first sum applies without the
(-1)^(p-1) prefactor, and the p = 0 case is defined through graded
antisymmetry [P, Q] = -(-1)^((p-1)(q-1)) [Q, P].

That convention is written once, as the index rule `_bracket_rule`, which
`_ruled` applies to raw terms {idx: {e: c}}. `schouten` is that rule on
polyvectors, through `_raw_bracket`; `geometry`'s division rule and tensor
certificate call `_raw_bracket` on raw terms, and the differential of
`complexes` applies the rule through rules it keeps. The wedge's signs are
written once too, as the index rule `_wedge_rule`, which the differential
and the tensor certificate apply by `_ruled`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from operator import add
from typing import Iterable, Mapping

from .errors import ChartMismatch
from .symbolic import (LaurentPoly, _add_product, _derivative, _product,
                       monomial_map, substitute)


def _sort_sign(indices: Iterable[int]):
    """Sort wedge indices, returning (tuple, sign); sign 0 on repeats."""
    idx = tuple(indices)
    if len(idx) < 3:
        # most tuples are short: at most one swap
        if len(idx) < 2 or idx[0] < idx[1]:
            return idx, 1
        if idx[0] > idx[1]:
            return (idx[1], idx[0]), -1
        return None, 0
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class Polyvector:
    """Sparse exact polyvector field of fixed degree on one chart."""

    __slots__ = ("vars", "degree", "terms")

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
                _acc(clean, idx, coeff)
        self.terms = clean

    # ---- constructors -------------------------------------------------
    @staticmethod
    def _valid(vars: tuple, degree: int, terms: dict) -> "Polyvector":
        """A polyvector of terms that are valid as they are, as the results
        of the core's own operations are: strictly increasing index tuples
        of length `degree` within `vars`, each once, with non-zero
        coefficients on `vars`. Nothing is checked or copied."""
        out = Polyvector.__new__(Polyvector)
        out.vars, out.degree, out.terms = vars, degree, terms
        return out

    @staticmethod
    def _from_raw(vars: tuple, degree: int, raw) -> "Polyvector":
        """The polyvector of the raw (index tuple, {exponent tuple:
        coefficient}) pairs `raw`, valid as `_valid` and `LaurentPoly._valid`
        take them."""
        return Polyvector._valid(vars, degree, {
            idx: LaurentPoly._valid(vars, terms) for idx, terms in raw})

    @classmethod
    def zero(cls, vars, degree: int) -> "Polyvector":
        return cls(vars, degree)

    @classmethod
    def from_function(cls, f: LaurentPoly) -> "Polyvector":
        return cls(f.vars, 0, {(): f})

    # ---- predicates / access ------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def as_function(self) -> LaurentPoly:
        if self.degree != 0:
            raise ChartMismatch("only a degree-0 polyvector is a function")
        return self.terms.get((), LaurentPoly.zero(self.vars))

    def _check(self, other: "Polyvector", same_degree=True):
        if self.vars != other.vars:
            raise ChartMismatch(
                f"charts differ: {self.vars} vs {other.vars}")
        if same_degree and self.degree != other.degree:
            raise ChartMismatch(
                f"degrees differ: {self.degree} vs {other.degree}")

    # ---- linear structure ---------------------------------------------
    def __add__(self, other: "Polyvector") -> "Polyvector":
        self._check(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            _acc(terms, idx, c)
        return Polyvector._valid(self.vars, self.degree, terms)

    def __neg__(self) -> "Polyvector":
        return Polyvector._valid(self.vars, self.degree,
                                 {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Polyvector") -> "Polyvector":
        return self + (-other)

    def __mul__(self, factor) -> "Polyvector":
        """Multiply by a function (LaurentPoly) or exact scalar."""
        if isinstance(factor, (int, Fraction)):
            factor = LaurentPoly.const(self.vars, factor)
        terms = {}
        for idx, c in self.terms.items():
            prod = c * factor
            if not prod.is_zero():
                terms[idx] = prod
        return Polyvector._valid(self.vars, self.degree, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polyvector):
            return NotImplemented
        return (self.vars == other.vars and self.degree == other.degree
                and self.terms == other.terms)

    # ---- display ------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            frame = " ^ ".join(f"d/{self.vars[i]}" for i in idx)
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            parts.append(f"{cs} * {frame}" if frame else cs)
        return " + ".join(parts)

    __repr__ = __str__


# ----------------------------------------------------------------------
# Wedge and bracket
# ----------------------------------------------------------------------

def _wedge_rule(idx: tuple, t: dict, s) -> list:
    """The index rule of s * (f d_idx) ^ t for `_ruled`, t given by its raw
    terms {J: terms}: per term of t, in order, the sorted index of idx + J
    and its terms times s and the sign of that sort. The one place the
    wedge's signs are written."""
    return [(out, None, {e: c * sign * s for e, c in g.items()})
            for J, g in t.items()
            for out, sign in (_sort_sign(idx + J),) if sign]


def _acc(out_terms: dict, idx: tuple, coeff: LaurentPoly):
    """out_terms[idx] += coeff, in place: a zero addend is skipped, a sum is
    kept where it is and an index whose sum cancels is deleted. The one
    update of coefficients."""
    if coeff.is_zero():
        return
    if idx in out_terms:
        s = out_terms[idx] + coeff
        if s.is_zero():
            del out_terms[idx]
        else:
            out_terms[idx] = s
    else:
        out_terms[idx] = coeff


def _ruled(raw: dict, rules: dict, key, build) -> dict:
    """{index tuple: terms} of an index rule applied to one slot's raw terms,
    in their order. The rule of (key, idx), built by build(idx) on first
    use and kept in rules, lists (output index, None, terms) for the
    product of idx's coefficient f with terms, and (output index, j, terms)
    for terms times d f / d v_j. Each product is added where it lands, by
    `symbolic._add_product`, in the rule's order, and an index whose terms
    cancel is deleted, as `_acc` deletes it."""
    acc = {}
    for idx, f in raw.items():
        rule = rules.get((key, idx))
        if rule is None:
            rule = rules[(key, idx)] = build(idx)
        for oidx, j, g in rule:
            terms = acc.get(oidx)
            if terms is None:
                terms = acc[oidx] = {}
            if j is None:
                _add_product(terms, f, g)
            else:
                _add_product(terms, g, _derivative(f, j))
            if not terms:
                del acc[oidx]
    return acc


def _bracket_rule(lam: dict, idx: tuple, s) -> list:
    """The index rule of s * [f d_idx, lam] for `_ruled`, lam given by its
    raw terms {J: terms}: the k-terms, then the l-terms, of the module
    docstring's formula per term of lam, each sign folded into its terms.
    The one place the bracket's signs are written. At degree 0 the rule
    gives s * [lam, f] (the l-terms with the other sign), which is
    s * [f, lam] for an even lam."""
    rule, t = [], s if idx else -s
    for J, g in lam.items():
        # the bracket with a function has no prefactor (-1)^(p-1)
        pref = s if len(idx) % 2 or not J else -s
        for k, j in enumerate(idx):
            dg = _derivative(g, j)
            out, sign = _sort_sign(idx[:k] + idx[k + 1:] + J)
            if dg and sign:
                sign *= -pref if k % 2 else pref
                rule.append((out, None, {e: c * sign for e, c in dg.items()}))
        for k, j in enumerate(J):
            out, sign = _sort_sign(idx + J[:k] + J[k + 1:])
            if sign:
                sign *= t if k % 2 else -t
                rule.append((out, j, {e: c * sign for e, c in g.items()}))
    return rule


def _raw_bracket(a: dict, b: dict, s=1) -> dict:
    """s * [a, b] as {index tuple: terms}, for a and b given by their raw
    terms {idx: terms}, or s * [b, a] for a function a: `_bracket_rule` of
    b applied to a by `_ruled`."""
    return _ruled(a, {}, None, lambda idx: _bracket_rule(b, idx, s))


def schouten(a: Polyvector, b: Polyvector) -> Polyvector:
    """Graded bracket of multivector fields (convention in module docstring):
    `_raw_bracket` of their raw terms, with s = -1 for a function a and an
    odd b, since at degree 0 the rule takes [b, a]."""
    a._check(b, same_degree=False)
    p, q = a.degree, b.degree
    if p == 0 and q == 0:
        return Polyvector.zero(a.vars, 0)
    return Polyvector._from_raw(a.vars, p + q - 1, _raw_bracket(
        {I: f.terms for I, f in a.terms.items()},
        {J: g.terms for J, g in b.terms.items()},
        -1 if p == 0 and q % 2 else 1).items())


# ----------------------------------------------------------------------
# Restriction and pushforward
# ----------------------------------------------------------------------

def restrict(a: Polyvector, names: Iterable[str]) -> Polyvector:
    """Evaluate the listed variables at zero in every coefficient, keeping all
    frame components (including those along the zeroed directions). Its
    callers are `semiregularity_image_rank` and
    `deformation.residual_total`."""
    names = tuple(names)
    terms = {}
    for i, c in a.terms.items():
        c = c.set_zero(names)
        if c.terms:
            terms[i] = c
    return Polyvector._valid(a.vars, a.degree, terms)


class Transition:
    """The transition of one ordered chart pair (source, target), kept on
    its atlas.

    `forward` gives each source variable in target coordinates, `inverse`
    each target variable in source coordinates, and `mono` is the compiled
    `symbolic.MonomialMap` of `forward`, or None when a value is not a
    single term. `convert` moves a function of the source variables to the
    target ones: through `mono` when there is one and the function lies on
    the source variables, through `symbolic.substitute` otherwise.

    Pushforward is linear over functions: phi_*(f d_I) = (f o phi^-1) *
    phi_*(d_I). For a source index tuple I, `self[I]` lists the terms of
    phi_*(d_I): per non-zero choice of Jacobian entries
    d(target_b)/d(source_s) (from `inverse`), one for each s in I, taken in
    `itertools.product` order, the sorted target index tuple of the b's and
    the signed product of the entries in target coordinates. The Jacobian
    and each list are built on their first use and kept, on raw terms: when
    `mono` exists and every inverse value is one term, as the builtin
    atlases' are, each image is one term, built by exponent arithmetic and
    `MonomialMap.image`; otherwise the entries are multiplied by
    `symbolic._product` and moved by `convert`. Either way the list holds
    one row (tidx, e, c) per term of each image, in order.

    `move` is the one transport loop: it moves a chunk's entries, the terms
    c * x^e d_I keyed by (I, e) under a head, and adds every term of every
    image where it lands, as entries again, keyed by (tidx, e) under the
    head. `pushforward` and `complexes._move_entries` call it once per
    chunk, and the tensor certificate of `geometry` through `_landed`,
    which groups its entries by target index where they first land.
    """

    __slots__ = ("source_vars", "target_vars", "forward", "inverse", "mono",
                 "_columns", "_images")

    def __init__(self, forward: Mapping[str, LaurentPoly],
                 inverse: Mapping[str, LaurentPoly],
                 source_vars: Iterable[str], target_vars: Iterable[str]):
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.forward = forward
        self.inverse = inverse
        self.mono = monomial_map(forward, self.source_vars, self.target_vars)
        self._columns = None
        self._images: dict = {}

    def convert(self, f: LaurentPoly) -> LaurentPoly:
        """A function of the source variables in target coordinates."""
        if self.mono is not None and f.vars == self.source_vars:
            return self.mono(f)
        out = substitute(f, self.forward)
        if out.vars != self.target_vars:
            out = out.with_vars(self.target_vars)
        return out

    def move(self, entries: Mapping) -> dict:
        """phi_* of a chunk's entries {head + (idx, e): c}, each the term
        c * x^e d_idx, as entries {head + (tidx, e): c}. Each entry, in
        order, is moved to the target variables once (by
        `MonomialMap.image`, or by `convert` when there is no `mono`), and
        each image term of d_idx, in order, times each of its moved terms,
        in order, is added where it lands: a sum is kept in place and a sum
        that cancels is dropped, so no key is left without a term."""
        mono = self.mono
        out: dict = {}
        for key, c in entries.items():
            head = key[:-2]
            if mono is None:
                moved = self.convert(LaurentPoly._valid(
                    self.source_vars, {key[-1]: c})).terms.items()
            else:
                moved = (mono.image(key[-1], c),)
            for tidx, ei, ci in self[key[-2]]:
                for e, c in moved:
                    # inline: through `_add_into`, an in-process `sections`
                    # pass ran 2-13% slower
                    k = head + (tidx, tuple(map(add, e, ei)))
                    s = out.get(k, 0) + c * ci
                    if s:
                        out[k] = s
                    elif k in out:
                        del out[k]
        return out

    def __getitem__(self, idx: tuple) -> list:
        images = self._images.get(idx)
        if images is None:
            images = self._images[idx] = self._build(idx)
        return images

    def _jacobian(self) -> tuple:
        """The non-zero entries of d(target)/d(source), one list per source
        index s of pairs (b, the terms of d(target_b)/d(source_s)) in
        target order, and whether every inverse value is one term."""
        exprs = []
        for tv in self.target_vars:
            expr = self.inverse[tv]
            if expr.vars != self.source_vars:
                expr = expr.with_vars(self.source_vars)
            exprs.append(expr.terms)
        columns = []
        for s in range(len(self.source_vars)):
            column = []
            for b, terms in enumerate(exprs):
                entry = _derivative(terms, s)
                if entry:
                    column.append((b, entry))
            columns.append(column)
        return columns, all(len(terms) == 1 for terms in exprs)

    def _build(self, idx: tuple) -> list:
        if self._columns is None:
            self._columns = self._jacobian()
        columns, single = self._columns
        mono, one = self.mono, (0,) * len(self.source_vars)
        rows = []
        for choice in _cartesian(*(columns[s] for s in idx)):
            tidx, sign = _sort_sign(b for b, _ in choice)
            if sign == 0:
                continue
            if mono is not None and single:
                # one term: the product's exponent is the sum of the
                # entries' and its coefficient their product, in order
                e, c = one, sign
                for _, entry in choice:
                    ((d, dc),) = entry.items()
                    e, c = tuple(map(add, e, d)), c * dc
                rows.append((tidx, *mono.image(e, c)))
                continue
            terms = {one: sign}
            for _, entry in choice:
                terms = _product(terms, entry)
            # a function's empty frame goes to 1, with nothing to substitute
            image = (self.convert(LaurentPoly._valid(self.source_vars, terms))
                     if choice else LaurentPoly.const(self.target_vars, sign))
            rows.extend((tidx, e, c) for e, c in image.terms.items())
        return rows


def pushforward(a: Polyvector, move: Transition) -> Polyvector:
    """Re-express a polyvector on the source chart of `move` on its target
    chart, in its coordinates and frame.

    Its terms are moved as entries, by one `move.move` call, and grouped by
    target index tuple in the order of the entries, the order in which
    `complexes._move_entries` gives an ambient chunk's: an index stands
    where its first remaining term stands, and an index whose terms all
    cancel is left out.
    """
    if a.vars != move.source_vars:
        raise ChartMismatch(f"charts differ: {a.vars} vs {move.source_vars}")
    raw: dict = {}
    for (tidx, e), c in move.move({(idx, e): c
                                   for idx, coeff in a.terms.items()
                                   for e, c in coeff.terms.items()}).items():
        raw.setdefault(tidx, {})[e] = c
    return Polyvector._from_raw(move.target_vars, a.degree, raw.items())


def _landed(move: Transition, entries: Mapping) -> dict:
    """The entries of `move.move(entries)` as {head + (tidx,): {e: c}}: the
    groups in the order the entries first land in them, whatever order
    their sums left the entries in, each group's terms in their order, and
    a group whose terms all cancel kept empty: the groups of the grouped
    transport that `move` replaced, which the tensor certificate of
    `geometry` and the NegativePowerAtZero message of
    `complexes._move_entries` read."""
    groups = {key[:-2] + (row[0],): {} for key in entries
              for row in move[key[-2]]}
    for key, c in move.move(entries).items():
        groups[key[:-1]][key[-1]] = c
    return groups
