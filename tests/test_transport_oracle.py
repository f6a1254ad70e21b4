"""The entry-level transport loop and the rules' in-place products against
the paths they replaced.

`Transition.move` moves a chunk's entries {head + (idx, e): c} in one call
and adds every term of every image where it lands, keyed as entries again,
{head + (tidx, e): c}; `pushforward`, `complexes._move_entries` and the
tensor certificate each call it once per chunk, and `_move_entries`
restricts the normal slots entry by entry, by `symbolic._zero_power`. `complexes._ruled` adds each
rule product where it lands, through `symbolic._add_product`, and reads a
slot's raw terms {idx: terms}, which its parent read as a polyvector.

Two generations of replaced paths are kept below verbatim:
- the per-entry `Transition.move`, with the `MonomialMap.terms` body it
  read, and `pushforward`, `_move_entries`, `_ruled` and
  `LaurentPoly.set_zero`, as `parent_*`;
- the grouped transport that the flat one replaced, whose `move` returned
  {head + (tidx,): terms} and whose `_move_entries` re-keyed and
  restricted the groups, as `grouped_*`.
The new paths must give their values, their term order at both dict
levels and the int or Fraction type of every coefficient, or raise the
same error with the same message, and must leave their inputs untouched.
`move`'s entries are compared in order with `flat_model`, which adds the
per-entry parent's image products term by term where they land, and,
grouped by `polyvector._landed`, with both parents' groups.

These orders differ, never a value or a type, and the tests that meet
them say so:
- the flat entries of a target index whose first term cancels stand
  after those of the indices filled since. `pushforward` groups the
  entries in their order, so such an index stands where its first
  remaining term stands; the grouped move kept it where it was filled
  first, and so did the per-entry parent unless its sum cancelled;
- on a transition that is not monomial a coefficient's terms are
  converted one by one, not summed first as the per-entry parent summed
  them;
- on a transition without `mono` whose images and moved coefficient
  both have several terms, each product term is added where it lands,
  where the parents summed each image's product first, so a group's
  terms may stand in another order (`_model_exact`); no shipped file or
  builtin atlas has a transition without `mono`;
- `_move_entries` gives an ambient chunk's flat entries, which stand in
  the grouped parent's order once stably regrouped by target index, and
  restricts a normal chunk entry by entry, in `move`'s order, so its
  output keeps the grouped parent's order only where the terms are met
  in that order (`_in_grouped_order`).

The draws cover every shipped atlas with more than one chart (`P1`..`P3`,
`Fm(0)`..`Fm(5)`, with the shipped submanifolds for normal slots), a
product atlas, the
non-monomial `shear` transition of `test_transport`, a shear whose frame
images have two terms and a plane bundle whose first-order matrix has a
two-term entry; one-term and multi-term coefficients, ints and Fractions,
and negative normal powers.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product as _cartesian
from operator import add
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import poissondef
from poissondef import polyvector
from poissondef.complexes import (_bracket_rule, _move_entries, _ruled,
                                  _wedge_rule)
from poissondef.dsl import parse
from poissondef.errors import NegativePowerAtZero, NonInvertibleSubstitution
from poissondef.geometry import hirzebruch, product, projective_space
from poissondef.polyvector import (Polyvector, _landed, _sort_sign,
                                   pushforward)
from poissondef.symbolic import (LaurentPoly, _add_product, _derivative,
                                 _product, _zeroed)
from test_transport import NON_MONOMIAL, _second_line

EXAMPLES = Path(poissondef.__file__).parent / "examples"


# ----------------------------------------------------------------------
# The replaced paths, verbatim
# ----------------------------------------------------------------------

def parent_mono_terms(self, p_terms):
    """The substituted terms of the polynomial with terms `p_terms`
    {exponent tuple: coefficient} on the source variables."""
    images = self.images
    n = len(self.target_vars)
    terms: dict = {}
    for e, c in p_terms.items():
        moved = [0] * n
        for i, entries, cv in images:
            k = e[i]
            if k:
                for j, y in entries:
                    moved[j] += k * y
                if cv is not None:
                    c = c * (cv ** k if k > 0 else Fraction(cv) ** k)
        exps = tuple(moved)
        s = terms.get(exps, 0) + c
        if s:
            terms[exps] = s
        elif exps in terms:
            del terms[exps]
    return terms


def parent_move(self, idx, f_terms):
    """phi_*(f d_idx) for the function f on the source variables with
    terms `f_terms` {exponent tuple: coefficient}: per image of d_idx,
    in order, its target index tuple and the terms of f moved to the
    target variables times the image. A compiled `mono` moves f's
    exponent vectors through its images; otherwise f goes through
    `convert`."""
    if self.mono is None:
        moved = self.convert(
            LaurentPoly._valid(self.source_vars, f_terms)).terms
    else:
        moved = parent_mono_terms(self.mono, f_terms)
    return [(tidx, _product(moved, image.terms))
            for tidx, image in grouped_images(self, idx)]


# the target indices whose sums `parent_pushforward` deleted
CANCELLED = []


def _acc(out_terms: dict, idx: tuple, coeff: LaurentPoly):
    """`polyvector._acc`, unchanged, recording an index whose sum cancels."""
    had = idx in out_terms
    polyvector._acc(out_terms, idx, coeff)
    if had and idx not in out_terms:
        CANCELLED.append(idx)


def parent_pushforward(a, move):
    """Re-express a polyvector on the target chart of `move`, in its
    coordinates and frame; `a` is first brought to the source variables.

    Each term is moved by `move.move` and its pieces are summed in order.
    """
    if a.vars != move.source_vars:
        a = a.with_vars(move.source_vars)
    target_vars = move.target_vars
    terms: dict = {}
    for idx, coeff in a.terms.items():
        for tidx, piece in parent_move(move, idx, coeff.terms):
            _acc(terms, tidx, LaurentPoly._valid(target_vars, piece))
    return Polyvector._valid(target_vars, a.degree, terms)


def _add_into(acc: dict, items, s=1):
    """acc += s * the (key, value) pairs `items`, in place, dropping the
    entries that cancel."""
    for key, val in items:
        v = acc.get(key, 0) + s * val
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]


def parent_moved(move, entries):
    """The first loop of `parent_move_entries`: the entries moved, per
    head and target index tuple."""
    moved = {}
    for key, val in entries.items():
        for tidx, piece in parent_move(move, key[-2], {key[-1]: val}):
            _add_into(moved.setdefault(key[:-2] + (tidx,), {}), piece.items())
    return moved


def parent_move_entries(space, S, entries: dict, src: str, dst: str) -> dict:
    """The `chunk_entries` entries of a chart-src chunk, moved to chart dst.

    Each entry moves by the edge's `Transition.move`. An ambient chunk's
    moved terms are its entries. A normal tuple's are summed per slot b and
    index tuple, restricted to the submanifold by `set_zero`, which raises
    NegativePowerAtZero on a negative normal power, and multiplied by the
    first-order matrix F = S.moved_first_order(dst, src): slot a on dst is
    sum_b F[a][b] times slot b moved."""
    move = space._moves[(src, dst)]
    moved = {}
    for key, val in entries.items():
        for tidx, piece in parent_move(move, key[-2], {key[-1]: val}):
            _add_into(moved.setdefault(key[:-2] + (tidx,), {}), piece.items())
    if not moved or len(next(iter(moved))) == 1:  # ambient keys (tidx,)
        return {(tidx, e): c for (tidx,), terms in moved.items()
                for e, c in terms.items()}
    w, F, out = S.normal[dst], S.moved_first_order(dst, src), {}
    for (b, tidx), terms in moved.items():
        restricted = parent_set_zero(LaurentPoly._valid(move.target_vars,
                                                        terms), w).terms
        for a, row in enumerate(F):
            _add_into(out, (((a, tidx, e), c) for e, c in
                            _product(row[b].terms, restricted).items()))
    return out


def _sum_into(acc: dict, idx: tuple, terms: dict):
    """acc[idx] += terms, for {index tuple: terms} dicts, as
    `polyvector._acc` adds a coefficient: a zero addend is skipped, a sum is
    kept in place and an index whose sum cancels is deleted."""
    if terms:
        old = acc.get(idx)
        if old is None:
            acc[idx] = terms
        else:
            _add_into(old, terms.items())
            if not old:
                del acc[idx]


def parent_ruled(pv: Polyvector, rules: dict, key, build) -> dict:
    """{index tuple: terms} of an index rule applied to pv's terms, in their
    order. The rule of (key, idx), built by build(idx) on first use and
    kept in rules, lists (output index, None, terms) for the product of the
    term's coefficient f with terms, and (output index, j, terms) for terms
    times d f / d v_j. The products are summed in the rule's order."""
    acc = {}
    for idx, f in pv.terms.items():
        rule = rules.get((key, idx))
        if rule is None:
            rule = rules[(key, idx)] = build(idx)
        for oidx, j, g in rule:
            _sum_into(acc, oidx, _product(f.terms, g) if j is None
                      else _product(g, _derivative(f.terms, j)))
    return acc


def parent_set_zero(self, names):
    """Evaluate the given variables at 0 (variable tuple unchanged)."""
    idx = [self.vars.index(n) for n in names]
    terms = {}
    for e, c in self.terms.items():
        kept = True
        for i in idx:
            if e[i] < 0:
                raise NegativePowerAtZero(
                    f"cannot set {names} to zero in {self}")
            if e[i]:
                kept = False
        if kept:
            terms[e] = c
    return LaurentPoly._valid(self.vars, terms)


# ----------------------------------------------------------------------
# The grouped transport that the flat one replaced, verbatim
# ----------------------------------------------------------------------
# `Transition._build` listed each image whole, as a `LaurentPoly`, and
# `Transition.move` returned the moved terms grouped, {head + (tidx,):
# terms}; `_move_entries` re-keyed an ambient chunk's groups into entries
# and restricted a normal chunk's group by group. Kept as
# `grouped_build`, `grouped_move` and `grouped_move_entries`; the images
# are kept per (transition, index tuple) by `grouped_images`, which
# `grouped_move` reads where the parent read `self[idx]`.

_GROUPED_IMAGES = {}


def grouped_images(move, idx):
    """`grouped_build(move, idx)`, built once and kept."""
    images = _GROUPED_IMAGES.get((move, idx))
    if images is None:
        images = _GROUPED_IMAGES[(move, idx)] = grouped_build(move, idx)
    return images


def grouped_build(self, idx: tuple) -> list:
    if self._columns is None:
        self._columns = self._jacobian()
    columns, single = self._columns
    mono, one = self.mono, (0,) * len(self.source_vars)
    images = []
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
            te, tc = mono.image(e, c)
            images.append((tidx, LaurentPoly._valid(self.target_vars,
                                                    {te: tc})))
            continue
        terms = {one: sign}
        for _, entry in choice:
            terms = _product(terms, entry)
        # a function's empty frame goes to 1, with nothing to substitute
        image = (self.convert(LaurentPoly._valid(self.source_vars, terms))
                 if choice else LaurentPoly.const(self.target_vars, sign))
        if not image.is_zero():
            images.append((tidx, image))
    return images


def grouped_move(self, entries) -> dict:
    """phi_* of a chunk's entries {head + (idx, e): c}, each the term
    c * x^e d_idx, as {head + (tidx,): terms}. Each entry, in order, is
    moved to the target variables once (by `MonomialMap.image`, or by
    `convert` when there is no `mono`), and each term of its product
    with each image of d_idx, in order, is added where it lands: a sum
    is kept in place and a sum that cancels is dropped. A target index
    whose terms all cancel keeps its place, with no terms."""
    mono = self.mono
    out: dict = {}
    for key, c in entries.items():
        head = key[:-2]
        if mono is None:
            moved = self.convert(LaurentPoly._valid(
                self.source_vars, {key[-1]: c})).terms
        else:
            e, c = mono.image(key[-1], c)
        for tidx, image in grouped_images(self, key[-2]):
            terms = out.get(head + (tidx,))
            if terms is None:
                terms = out[head + (tidx,)] = {}
            if mono is None:
                _add_product(terms, moved, image.terms)
            else:
                # inline: through `_add_product`, `sections` ran 4-7% slower
                for ei, ci in image.terms.items():
                    k = tuple(map(add, e, ei))
                    s = terms.get(k, 0) + c * ci
                    if s:
                        terms[k] = s
                    elif k in terms:
                        del terms[k]
    return out


def grouped_pushforward(a, move):
    """Re-express a polyvector on the target chart of `move`, in its
    coordinates and frame; `a` is first brought to the source variables.

    Its terms are moved as entries, by one `move.move` call; a target
    index whose terms cancel is left out.
    """
    if a.vars != move.source_vars:
        a = a.with_vars(move.source_vars)
    moved = grouped_move(move, {(idx, e): c for idx, coeff in a.terms.items()
                                for e, c in coeff.terms.items()})
    return Polyvector._from_raw(move.target_vars, a.degree, (
        (tidx, terms) for (tidx,), terms in moved.items() if terms))


def grouped_move_entries(space, S, entries: dict, src: str,
                         dst: str) -> dict:
    """The `chunk_entries` entries of a chart-src chunk, moved to chart dst.

    The entries move by one call of the edge's `Transition.move`. An
    ambient chunk's moved terms are its entries. A normal tuple's come per
    slot b and index tuple; each is restricted to the submanifold by
    `_zeroed`, which raises NegativePowerAtZero on a negative normal power,
    and multiplied by the first-order matrix F = S.moved_first_order(dst,
    src): slot a on dst is sum_b F[a][b] times slot b moved. The edge's
    `SubmanifoldData.transport_plan` lists the non-zero F[a][b] per b; a
    one-term entry's products are added where they land, in place, and any
    other entry's product is built by `_product` and added by
    `symbolic._add_into`, as `symbolic._add_product` adds it."""
    move = space._moves[(src, dst)]
    moved = grouped_move(move, entries)
    if not moved or len(next(iter(moved))) == 1:  # ambient keys (tidx,)
        return {(tidx, e): c for (tidx,), terms in moved.items()
                for e, c in terms.items()}
    cvars, w, out = move.target_vars, S.normal[dst], {}
    pos, plan = S.transport_plan(dst, src)
    for (b, tidx), terms in moved.items():
        restricted = _zeroed(cvars, w, pos, terms)
        for a, fe, fc in plan[b]:
            if fe is None:
                _add_into(out, (((a, tidx, e), c) for e, c in
                                _product(fc, restricted).items()))
                continue
            # inline: through `_add_into`, `sections` ran 4-7% slower
            for e, c in restricted.items():
                k = (a, tidx, tuple(map(add, fe, e)))
                v = out.get(k, 0) + fc * c
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
    return out


def flat_model(move, entries) -> dict:
    """The entries the flat `move` must give, from the per-entry parent:
    each entry, in order, moved by `parent_move`, and each term of each of
    its image products, in order, added where it lands, keyed head +
    (tidx, e). Where each image of an index has one term, or `mono`
    exists, `move` adds the same terms in the same order
    (`_model_exact`)."""
    out: dict = {}
    for key, c in entries.items():
        for tidx, terms in parent_move(move, key[-2], {key[-1]: c}):
            _add_into(out, ((key[:-2] + (tidx, e), v)
                            for e, v in terms.items()))
    return out


def _model_exact(move, entries) -> bool:
    """Whether `flat_model` gives `move`'s order on these entries: a
    product of a several-term moved coefficient and a several-term image
    summed its terms first, where `move` adds each where it lands."""
    return move.mono is not None or all(
        len(image.terms) == 1 for key in entries
        for _, image in grouped_images(move, key[-2]))


# ----------------------------------------------------------------------
# Atlases and comparisons
# ----------------------------------------------------------------------

# a shear whose frame images have two terms: dv/dx = 2x + 3x^2
SHEAR3 = """
manifold shear3;
chart U0 vars x y;
chart U1 vars u v;
transition U0 -> U1: x = u, y = v - u^2 - u^3;
transition U1 -> U0: u = x, v = y + x^2 + x^3;
submanifold normal U0: [x];
submanifold normal U1: [u];
"""

# a plane bundle over P1 whose first-order matrices have the two-term
# entries y^-1 + y and -(x + x^-1)
SHEARED_PLANE2 = """
manifold sheared_plane_bundle2;
chart A vars x p q;
chart B vars y u v;
transition A -> B: x = y^-1, p = u, q = y^-1 * u + y * u + v;
transition B -> A: y = x^-1, u = p, v = q - x * p - x^-1 * p;
submanifold normal A: [p, q];
submanifold normal B: [u, v];
"""

# one shipped file per shipped atlas with more than one chart, for the
# submanifold its normal slots move on
SHIPPED = ("f0_extended", "f1_extended", "f2_instability", "f3_extended",
           "f4_extended", "f5_extended", "p2_extended", "p3_hyperplane",
           "p3_line")


@cache
def cases() -> dict:
    """name -> (atlas, submanifold or None)."""
    out = {"P1": (projective_space(1), None),
           **{f"F{m}": (hirzebruch(m), None) for m in range(6)},
           "P1xP1": (product(projective_space(1), _second_line()), None)}
    for name in SHIPPED:
        S = parse((EXAMPLES / f"{name}.pdef").read_text()).submanifold()
        out[name] = (S.space, S)
    for name, text in (("shear", NON_MONOMIAL), ("shear3", SHEAR3),
                       ("sheared_plane2", SHEARED_PLANE2)):
        S = parse(text).submanifold()
        out[name] = (S.space, S)
    return out


def _typed(terms: dict) -> list:
    return [(e, c, type(c)) for e, c in terms.items()]


def _nested(moved: dict) -> list:
    """Both dict levels of {key: {exponent: coefficient}}, in order, with
    the type of every coefficient."""
    return [(key, _typed(terms)) for key, terms in moved.items()]


def _pv(pv: Polyvector) -> tuple:
    return (pv.vars, pv.degree,
            [(idx, pv.terms[idx].vars, _typed(pv.terms[idx].terms))
             for idx in pv.terms])


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raised: a
    negative normal power left on the submanifold, or a negative power of
    a sum on a non-monomial atlas."""
    try:
        return f(*args)
    except (NegativePowerAtZero, NonInvertibleSubstitution) as e:
        return type(e).__name__, str(e)


scalars = st.one_of(st.integers(-3, 3).filter(bool),
                    st.builds(Fraction, st.integers(-3, 3).filter(bool),
                              st.integers(2, 3)))


@st.composite
def moves(draw, ambient=False):
    """An atlas, a part, an edge and a chunk's entries on its source chart:
    exponents from -2 (-1 on a variable whose value on the target has more
    than one term), normal ones mostly 0 and sometimes -1; index tuples of
    degree 0..3 with one to four terms each. In half of the draws the
    exponents lie in -1..1 and the coefficients are 1 or -1, so that moved
    terms often meet and cancel."""
    space, S = cases()[draw(st.sampled_from(sorted(cases())))]
    part = draw(st.sampled_from(("amb", "nor") if S and not ambient
                                else ("amb",)))
    src, dst = draw(st.sampled_from(sorted(
        S.first_order if part == "nor" else space.overlap_pairs())))
    cvars = space.chart(src).vars
    normal = S.normal[src] if part == "nor" else ()
    forward = space.transitions[(src, dst)]
    narrow = draw(st.booleans())
    exps = st.tuples(*[
        st.sampled_from((0, 0, 1, -1) if narrow else (0, 0, 0, 1, 2, -1))
        if v in normal else
        st.integers(-1, 1) if narrow else
        st.integers(-2 if len(forward[v].terms) == 1 else -1, 2)
        for v in cvars])
    values = st.sampled_from((1, -1)) if narrow else scalars
    degree = draw(st.integers(0, min(3, len(cvars))))
    frames = list(combinations(range(len(cvars)), degree))
    entries = {}
    for head in ([(a,) for a in range(S.codim)] if part == "nor" else [()]):
        for idx in draw(st.lists(st.sampled_from(frames), max_size=4,
                                 unique=True)):
            for e, c in draw(st.dictionaries(exps, values, min_size=1,
                                             max_size=4)).items():
                entries[head + (idx, e)] = c
    return space, S if part == "nor" else None, src, dst, degree, entries


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def _values(entries: dict) -> dict:
    return {key: (c, type(c)) for key, c in entries.items()}


def _flattened(grouped: dict) -> dict:
    """A grouped move's {head + (tidx,): terms} as entries {head + (tidx,
    e): c}, group by group, each group's terms in their order."""
    return {key + (e,): c for key, terms in grouped.items()
            for e, c in terms.items()}


def _regrouped(entries: dict, grouped: dict) -> dict:
    """Entries {head + (tidx, e): c} stably sorted by the place of their
    group head + (tidx,) among a grouped move's groups."""
    place = {key: n for n, key in enumerate(grouped)}
    return dict(sorted(entries.items(), key=lambda kv: place[kv[0][:-1]]))


def _grouped_layout(grouped: dict, ordered: bool) -> list:
    """A grouped move's groups, in order, each with its terms and their
    types: in their order, or as a dict when `ordered` is false."""
    return [(key, _typed(terms) if ordered else _values(terms))
            for key, terms in grouped.items()]


def _in_grouped_order(S, src, dst, moved: dict, grouped: dict) -> bool:
    """Whether restricting a normal chunk entry by entry meets its terms in
    the order in which restricting group by group met them: the moved
    entries stand group by group, in the groups' order, and a group with
    two or more terms kept on the submanifold has a slot whose
    first-order row is at most one one-term entry. Restricting group by
    group took a group's kept terms once per entry of its row, and a
    several-term entry's products summed before they were added."""
    if list(moved) != list(_flattened(grouped)):
        return False
    pos, plan = S.transport_plan(dst, src)
    return all(len(plan[b]) <= 1 and all(fe is not None for _, fe, _ in
                                         plan[b])
               for (b, _), terms in grouped.items()
               if sum(not any(e[i] for i in pos) for e in terms) > 1)


@SETTINGS
@given(moves())
def test_one_call_moves_a_chunk_as_each_entry_was_moved(drawn):
    """`move` and `_move_entries` against the grouped and the per-entry
    parents, there and back: on the way back the chain rule's cross terms
    meet and cancel.

    `move`'s entries are `flat_model`'s, in order, with their types, and
    grouped by `polyvector._landed` they are both parents' groups at both
    dict levels, in order, the emptied groups included. Where the model
    is not exact (`_model_exact`) a group's terms are compared as a dict.
    `_move_entries` gives the grouped parent's keys, values and types, or
    raises its error with its message. An ambient chunk's entries are
    `move`'s, so they stand in the parent's order once stably regrouped in
    the grouped move's group order. A normal chunk's stand in the parent's
    order whenever its terms are met in the parent's order
    (`_in_grouped_order`)."""
    space, S, src, dst, degree, entries = drawn
    for _ in range(2):
        before = list(entries.items())
        move = space._moves[(src, dst)]
        ordered = _model_exact(move, entries)
        flat = _outcome(move.move, entries)
        want = _outcome(flat_model, move, entries)
        assert (flat if isinstance(flat, tuple) else
                _typed(flat) if ordered else _values(flat)) == \
            (want if isinstance(want, tuple) else
             _typed(want) if ordered else _values(want))
        got = _outcome(_landed, move, entries)
        for parent in (grouped_move, parent_moved):
            want = _outcome(parent, move, entries)
            assert (got if isinstance(got, tuple)
                    else _grouped_layout(got, ordered)) == \
                (want if isinstance(want, tuple)
                 else _grouped_layout(want, ordered))
        grouped = _outcome(grouped_move, move, entries)
        got = _outcome(_move_entries, space, S, entries, src, dst)
        want = _outcome(grouped_move_entries, space, S, entries, src, dst)
        assert (got if isinstance(got, tuple) else _values(got)) == \
            (want if isinstance(want, tuple) else _values(want))
        if isinstance(got, tuple) or not ordered:
            pass
        elif S is None:
            assert _typed(got) == _typed(flat)
            assert _typed(_regrouped(got, grouped)) == _typed(want)
        elif _in_grouped_order(S, src, dst, flat, grouped):
            assert _typed(got) == _typed(want)
        assert list(entries.items()) == before
        if isinstance(got, tuple):
            return
        entries, src, dst = got, dst, src


def test_a_normal_chunk_keeps_the_parent_order_where_its_terms_do():
    """On every first-order edge of every shipped submanifold, and of the
    two shears of the draws, the normal chunk with one entry per slot and
    index tuple of degree 0 or 1, at x^0, and the one with a second entry
    at the product of the chart's other variables. Their terms are met in
    the grouped parent's order on some edges, where `_move_entries` gives
    the parent's order with several entries, and not on others, where
    some outputs stand in another order."""
    met, other = [], []
    for name in SHIPPED + ("shear3", "sheared_plane2"):
        space, S = cases()[name]
        for src, dst in sorted(S.first_order):
            cvars = space.chart(src).vars
            zero = (0,) * len(cvars)
            linear = tuple(int(v not in S.normal[src]) for v in cvars)
            move = space._moves[(src, dst)]
            for exps in ((zero,), (zero, linear)):
                entries = {(b, idx, e): b + 1 for b in range(S.codim)
                           for degree in range(2)
                           for idx in combinations(range(len(cvars)), degree)
                           for e in exps}
                got = _move_entries(space, S, entries, src, dst)
                want = grouped_move_entries(space, S, entries, src, dst)
                assert _values(got) == _values(want)
                if _in_grouped_order(S, src, dst, move.move(entries),
                                     grouped_move(move, entries)):
                    assert _typed(got) == _typed(want)
                    met.append(len(got))
                else:
                    other.append(_typed(got) == _typed(want))
    assert max(met) > 1
    assert not all(other)


def _as_dict(pv: Polyvector) -> dict:
    return {idx: {e: (c, type(c)) for e, c in coeff.terms.items()}
            for idx, coeff in pv.terms.items()}


def _in_order(pv: Polyvector, order: list) -> tuple:
    """`_pv` of a polyvector with its index tuples in the order `order`."""
    return (pv.vars, pv.degree,
            [(idx, pv.terms[idx].vars, _typed(pv.terms[idx].terms))
             for idx in order if idx in pv.terms])


@SETTINGS
@given(moves(ambient=True))
def test_pushforward_keeps_values_and_types(drawn):
    """The parent's values and types always. Where `flat_model` is exact,
    the terms of the per-entry parent's and of the grouped parent's
    indices, with the emptied indices left out, in their order, and the
    index tuples in the order of their first term among the model's
    entries; elsewhere each index's terms compared as a dict."""
    space, _, src, dst, degree, entries = drawn
    move = space._moves[(src, dst)]
    coeffs = {}
    for (idx, e), c in entries.items():
        coeffs.setdefault(idx, {})[e] = c
    cvars = move.source_vars
    a = Polyvector(cvars, degree, {idx: LaurentPoly(cvars, terms)
                                   for idx, terms in coeffs.items()})
    kept = _pv(a)
    got = _outcome(pushforward, a, move)
    want = _outcome(parent_pushforward, a, move)
    assert _pv(a) == kept
    if isinstance(want, tuple):
        assert got == want
        return
    assert _as_dict(got) == _as_dict(want)
    entries = {(idx, e): c for idx, coeff in a.terms.items()
               for e, c in coeff.terms.items()}
    moved = parent_moved(move, entries)
    for parent in (Polyvector._valid(move.target_vars, degree, {
            tidx: LaurentPoly._valid(move.target_vars, terms)
            for (tidx,), terms in moved.items() if terms}),
            grouped_pushforward(a, move)):
        assert _as_dict(got) == _as_dict(parent)
        if _model_exact(move, entries):
            assert _pv(got) == _in_order(parent, list(dict.fromkeys(
                tidx for tidx, _ in flat_model(move, entries))))


def test_a_refilled_target_index_follows_its_entries():
    """On P3, from U0 to U2: z1^-1*z3 * d/z2 ^ d/z3 fills the target
    indices (0, 2) and (1, 2), -d/z1 ^ d/z2 cancels (1, 2) and fills
    (0, 1), and the two terms on d/z1 ^ d/z3 fill (1, 2) again. The flat
    move's entries on (1, 2) land again after those on (0, 1), so
    `pushforward` has the per-entry parent's order; the grouped move kept
    the emptied group in its first place."""
    space = projective_space(3)
    cvars = space.chart("U0").vars
    a = Polyvector(cvars, 2, {
        (1, 2): LaurentPoly(cvars, {(-1, 0, 1): 1}),
        (0, 1): LaurentPoly(cvars, {(0, 0, 0): -1}),
        (0, 2): LaurentPoly(cvars, {(1, -1, 1): 1, (-1, -1, 1): 1})})
    move = space._moves[("U0", "U2")]
    CANCELLED.clear()
    got, want = pushforward(a, move), parent_pushforward(a, move)
    grouped = grouped_pushforward(a, move)
    assert CANCELLED == [(1, 2)]
    assert got == want == grouped
    assert list(got.terms) == [(0, 2), (0, 1), (1, 2)]
    assert list(want.terms) == [(0, 2), (0, 1), (1, 2)]
    assert list(grouped.terms) == [(0, 2), (1, 2), (0, 1)]


def test_an_index_whose_first_term_cancels_follows_its_entries():
    """On P2, from U0 to U1: -d/z2 fills the target index (1,) with -z1,
    -d/z1 fills (0,) and adds z1*z2 to (1,), and -z1*z2^-1 * d/z1 cancels
    (1,)'s first term, which leaves z1*z2 there. The flat entries on (0,)
    then stand first, and `pushforward` puts (0,) first; both parents kept
    (1,) first, where it was filled first."""
    space = projective_space(2)
    cvars = space.chart("U0").vars
    a = Polyvector(cvars, 1, {
        (1,): LaurentPoly(cvars, {(0, 0): -1}),
        (0,): LaurentPoly(cvars, {(0, 0): -1, (1, -1): -1})})
    move = space._moves[("U0", "U1")]
    CANCELLED.clear()
    got, want = pushforward(a, move), parent_pushforward(a, move)
    grouped = grouped_pushforward(a, move)
    assert CANCELLED == []
    assert got == want == grouped
    assert _as_dict(got) == _as_dict(want) == _as_dict(grouped)
    assert list(got.terms) == [(0,), (1,)]
    assert list(want.terms) == list(grouped.terms) == [(1,), (0,)]


def test_an_uncompiled_image_is_added_term_by_term():
    """On the shear whose frame images have two terms, d/x moves to d/u
    plus a two-term multiple of d/v. Each image term times each moved
    term of a coefficient is added where it lands, where the grouped move
    added each image's product, summed first: the same terms, values and
    types on each index tuple, some in another order. Every shipped file
    and builtin atlas has a compiled `mono` on every edge, so no shipped
    report moves."""
    space, _ = cases()["shear3"]
    move = space._moves[("U0", "U1")]
    entries = {((0,), (0, 2)): -1, ((0,), (1, 2)): 1, ((0,), (2, 1)): -1}
    assert move.mono is None and not _model_exact(move, entries)
    got, want = _landed(move, entries), grouped_move(move, entries)
    assert _grouped_layout(got, False) == _grouped_layout(want, False)
    assert _nested(got) != _nested(want)
    atlases = [projective_space(n) for n in (1, 2, 3)]
    atlases += [hirzebruch(m) for m in range(6)]
    atlases += [parse(path.read_text()).space
                for path in sorted(EXAMPLES.glob("*.pdef"))]
    assert all(m.mono is not None for space in atlases
               for m in space._moves.values())


def test_the_draws_reach_every_branch():
    """The atlases hold compiled and uncompiled transitions, frame images
    of one and of two terms, and first-order matrices with one-term and
    two-term entries."""
    mono, images, entries = set(), set(), set()
    for space, S in cases().values():
        for (src, dst), move in space._moves.items():
            mono.add(move.mono is not None)
            for degree in range(len(move.source_vars) + 1):
                for idx in combinations(range(len(move.source_vars)),
                                        degree):
                    images.update(len(image.terms) for _, image in
                                  grouped_images(move, idx))
        for src, dst in (S.first_order if S else ()):
            for row in S.moved_first_order(dst, src):
                entries.update(len(f.terms) for f in row)
    assert mono == {True, False}
    assert {1, 2} <= images
    assert {0, 1, 2} <= entries


@st.composite
def rules(draw):
    """A chart of an atlas, a polyvector of degree 0..2 on it with one- to
    three-term coefficients, and an index rule: the bracket with the
    shipped structure or with a random bivector, or the wedge with a
    random polyvector of degree 0..2."""
    space, S = cases()[draw(st.sampled_from(sorted(cases())))]
    name = draw(st.sampled_from(space.chart_names))
    cvars = space.chart(name).vars
    exps = st.tuples(*(st.integers(-1, 2) for _ in cvars))

    def polyvector(degree, max_terms):
        frames = list(combinations(range(len(cvars)), degree))
        terms = draw(st.dictionaries(
            st.sampled_from(frames),
            st.dictionaries(exps, scalars, min_size=1, max_size=max_terms),
            max_size=3))
        return Polyvector(cvars, degree, {
            idx: LaurentPoly(cvars, mono) for idx, mono in terms.items()})

    pv = polyvector(draw(st.integers(0, min(2, len(cvars)))), 3)
    s = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("bracket", "structure", "wedge")))
    if kind == "wedge":
        t = polyvector(draw(st.integers(0, min(2, len(cvars)))), 3)
        raw_t = {J: g.terms for J, g in t.terms.items()}
        return pv, lambda idx: _wedge_rule(idx, raw_t, s)
    if kind == "structure" and S is not None and name in S.manifold.bivectors:
        lam = S.manifold.bivector(name)
    else:
        lam = polyvector(min(2, len(cvars)), 3)
    raw_lam = {J: g.terms for J, g in lam.terms.items()}
    return pv, lambda idx: _bracket_rule(raw_lam, idx, s)


def _rules_shape(kept: dict) -> list:
    return [(key, [(oidx, j, _typed(g)) for oidx, j, g in rule])
            for key, rule in kept.items()]


@SETTINGS
@given(rules())
def test_rule_products_land_as_the_summed_products_did(drawn):
    """Applied twice, building the rules and then reading them kept."""
    pv, build = drawn
    before = _pv(pv)
    new_rules, old_rules = {}, {}
    for _ in range(2):
        raw = {idx: f.terms for idx, f in pv.terms.items()}
        got = _ruled(raw, new_rules, None, build)
        assert _nested(got) == _nested(parent_ruled(pv, old_rules, None,
                                                    build))
        assert all(got.values())
    assert _pv(pv) == before
    assert _rules_shape(new_rules) == _rules_shape(old_rules)


@SETTINGS
@given(st.data())
def test_set_zero_keeps_its_terms_and_message(data):
    cvars = ("z1", "z2", "z3")
    p = LaurentPoly(cvars, data.draw(st.dictionaries(
        st.tuples(*(st.integers(-1, 2) for _ in cvars)), scalars,
        max_size=4)))
    names = tuple(data.draw(st.lists(st.sampled_from(cvars), max_size=2,
                                     unique=True)))
    got = _outcome(LaurentPoly.set_zero, p, names)
    want = _outcome(parent_set_zero, p, names)
    assert (got if isinstance(got, tuple) else (got.vars, _typed(got.terms))
            ) == (want if isinstance(want, tuple)
                  else (want.vars, _typed(want.terms)))


def test_a_negative_normal_power_is_refused_with_the_same_message():
    p = LaurentPoly(("z1", "z2", "z3"), {(2, 0, -1): 6})
    assert _outcome(LaurentPoly.set_zero, p, ("z3",)) == (
        "NegativePowerAtZero", "cannot set ('z3',) to zero in 6*z1^2*z3^-1")
    space, S = cases()["p3_hyperplane"]
    src, dst = min(S.first_order)
    cvars = space.chart(src).vars
    e = [2] * len(cvars)
    e[cvars.index(S.normal[src][0])] = -1
    entries = {(0, (), tuple(e)): Fraction(3, 2), (0, (), (0,) * 3): 1}
    got = _outcome(_move_entries, space, S, entries, src, dst)
    assert got[0] == "NegativePowerAtZero"
    assert got == _outcome(parent_move_entries, space, S, entries, src, dst)


def test_the_first_group_to_land_names_the_negative_power():
    """On the P3 line, from U0 to U2, slot 1 of d/z1 + z3^-1 * d/z2 lands
    on the index tuples (1,), (0,) and (2,), and both (1,) and (0,) hold a
    negative power of the normal z3. The first such moved entry stands on
    (0,), yet the error names the polynomial on (1,), the group that
    landed first, as restricting group by group named it."""
    space, S = cases()["p3_line"]
    move = space._moves[("U0", "U2")]
    entries = {(1, (0,), (0, 0, 0)): 1, (1, (1,), (0, 0, -1)): 1}
    assert list(grouped_move(move, entries)) == [(1, (1,)), (1, (0,)),
                                                 (1, (2,))]
    first = next(key for key in move.move(entries) if key[-1][2] < 0)
    assert first[:2] == (1, (0,))
    got = _outcome(_move_entries, space, S, entries, "U0", "U2")
    assert got == ("NegativePowerAtZero",
                   "cannot set ('z2', 'z3') to zero in z1 - z1^2*z2*z3^-1")
    assert got == _outcome(grouped_move_entries, space, S, entries, "U0",
                           "U2")
    assert got == _outcome(parent_move_entries, space, S, entries, "U0",
                           "U2")
