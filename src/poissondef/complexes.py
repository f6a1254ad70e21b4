"""Controlling complexes and their exact cohomology engines.

Four complex kinds are supported:

- "normal":     chartwise r-tuples of polyvectors with coefficients constant
                along the normal directions.
- "extended":   pairs (ambient polyvector of degree p+2, normal r-tuple of
                degree p).
- "linebundle": single-chart scalar-slot complex (graded affine engine only).
- "bivector":   ambient polyvectors of degree p+2.

Every linear computation is exact over Q.

All four share one differential, the bracket with the structure Λ twisted
by structure fields. Slot a of a degree-p chunk x on a chart becomes

    -[x_a, Λ] + (-1)^p Σ_b x_b ∧ twist[a][b] + (-1)^p restrict([amb, w_a]),

the bracket restricted to the submanifold in the normal part, and the last
term, the coupling of the ambient part through the normal coordinates w_a,
in the extended kind's normal part only. d is applied to a chunk's raw term
dicts through index rules compiled once per (part, chart, p) and kept on the
descriptor: per input index tuple, the output index, sign and Λ terms of
each product of the bracket, and the output index, sign and twist terms of
each wedge. The rules are `polyvector._bracket_rule` and `_wedge_rule`,
applied by `polyvector._ruled`: the bracket's rule is the body of
`schouten`, and the wedge's is the one wedge, which the tensor certificate
of `geometry` applies too. `differential` is `differential_terms` on
chunks.
`twist(part, chart)` gives:

    part  kind               twist[a][b]
    nor   normal, extended   T0[a][b] restricted to the submanifold
    amb   linebundle         the unrestricted structure field (one slot)
    amb   bivector, extended none

A cochain takes one of three forms:

- chunks, {"nor": {chart: [Polyvector]*r}} and/or {"amb": {chart:
  Polyvector}}: one chart's chunk is r polyvectors for the normal part and
  one for the ambient part. Reports and library callers read chunks.
- raw terms: each slot's polyvector as its terms {idx: {e: c}}, in a list
  of one dict per slot (one for the ambient part). d reads and writes them.
- entries: one chart's chunk as {((slot,) idx, e): c}, the slot left out
  for an ambient chunk. Transport and linearisation read them.

Each conversion is one function: `_raw` gives a cochain's raw terms (views,
not copies), `_chunk` builds a chunk from raw terms, `chunk_entries` and
`_raw_entries` give the entries of a chunk or of its raw terms, and
`_grouped` groups entries into raw terms. Other functions read chunks
through `_slots`, a chunk's (slot, polyvector) pairs, slot None for an
ambient chunk, and `_chunk_map`, which applies a function slot by slot.

`_move_entries` moves a chunk's entries across one chart edge by one call of
the edge's `Transition.move`, the one transport loop, into entries, the one
moved form. A normal tuple's are restricted to the submanifold and
multiplied by the first-order normal transition matrix entry by entry,
read through the edge's kept `SubmanifoldData.transport_plan`; that rule
is written there only.
`transport_nor_tuple`, `atom_rows`, the section search and the truncated
estimate all move normal chunks through it.

The Cech total complex of a descriptor is written once, here:
`total_coboundary` maps a degree-zero cochain to its chart part d(c) and its
overlap part c_i - (c_k moved to chart i) over every ordered overlap of the
atlas, and `total_closedness` checks the closedness identities of a
degree-one total cochain. The solver's order steps and certificates
(`deformation`), the small-ring obstruction calculus (`artin`) and the
gluing checks all go through these two functions; in that complex the
ambient part couples into the normal part with the sign (-1)^p.

Bounded-degree monomial unknowns are enumerated once, by `monomial_atoms`:
an atom is the coordinate key of the single entry of its cochain, and its
exponents come in graded-lex order. The section search, the graded engine,
the solver's order step and the small-ring liftability all draw their
unknowns from it. The last two ask one
question, whether a degree-one total cochain is the total coboundary of
such unknowns, and one `CoboundarySystem` answers it for both: it builds
each unknown's column at most once, `total_rows` of its total coboundary
under the caller's row labels, and only when a non-empty total cochain,
linearised the same way, is solved for; a zero one is solved by zero. An
atom enters d as raw terms (`_atom_terms`) and leaves as entries, so its
column (`atom_rows`), its graded image and its piece of the truncated
estimate make no polyvector. The few other unknowns (the order step's
ambient sections) go through `total_coboundary`.

The section search moves each root-chart atom of either part along a
spanning tree once, as entries, by `_move_entries`. An atom's column is its
negative-exponent entries on every chart, and a section is the sum of its
kernel vector's atoms' entries, built into chunks once. `h0_complex` takes
d of the sections as raw terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import add, neg, sub
from typing import Iterable

from .errors import (ClosednessViolation, InconsistentData, NotInKernel,
                     UnstableAnsatz)
from .geometry import PoissonLineBundle, PoissonManifold, SubmanifoldData
# rref is not called here; perfbench's tracing tests expect this module to
# hold it
from .linalg import nullspace, rank, rref, solve_min  # noqa: F401
from .polyvector import (Polyvector, _bracket_rule, _landed, _ruled,
                         _wedge_rule, restrict)
from .symbolic import (LaurentPoly, _add_into, _as_scalar, _simplex,
                       _zero_power, _zeroed)


# ----------------------------------------------------------------------
# Cochain helpers
# ----------------------------------------------------------------------

# the name of each cochain part in identities and reports, normal first
PART_LABELS = {"nor": "normal", "amb": "ambient"}


def _slots(part: str, chunk):
    """(slot, polyvector) pairs of one chart's chunk of a cochain part: the
    r slots of a normal tuple, or the one ambient polyvector under slot
    None."""
    return enumerate(chunk) if part == "nor" else ((None, chunk),)


def _chunk_map(part: str, f, *chunks):
    """f applied slot by slot to chunks of one part, in the chunks' shape."""
    return [f(*pvs) for pvs in zip(*chunks)] if part == "nor" else f(*chunks)


def chunk_entries(part: str, chunk):
    """The entries ((slot,) idx, e), value of one chart's chunk of a part:
    the slot leads for a normal tuple and is left out for an ambient chunk."""
    for slot, pv in _slots(part, chunk):
        head = () if slot is None else (slot,)
        for idx, coeff in pv.terms.items():
            for e, val in coeff.terms.items():
                yield head + (idx, e), val


def _raw_entries(part: str, vals: list, head: tuple = ()):
    """The entries head + ((slot,) idx, e), value of one chart's chunk of a
    part given by its raw terms [{idx: terms}] per slot, in `chunk_entries`'
    order."""
    for slot, val in enumerate(vals):
        at = head + (slot,) if part == "nor" else head
        for idx, terms in val.items():
            for e, c in terms.items():
                yield at + (idx, e), c


def _grouped(codim: int | None, entries: dict) -> list:
    """The raw terms [{idx: terms}] per slot, codim slots or one when codim
    is None, of the chunk whose `chunk_entries` are the non-zero `entries`."""
    vals = [{} for _ in range(1 if codim is None else codim)]
    for key, val in entries.items():
        vals[0 if codim is None else key[0]].setdefault(
            key[-2], {})[key[-1]] = val
    return vals


def _chunk(part: str, cvars: tuple, degree: int, vals: list):
    """The chunk of one part, on the chart variables cvars, whose degree
    polyvectors have the raw terms vals, kept as they are, not copied."""
    pvs = [Polyvector._from_raw(cvars, degree, val.items()) for val in vals]
    return pvs if part == "nor" else pvs[0]


def _raw(cochain: dict) -> dict:
    """The raw terms of a cochain of chunks, as `differential_terms` reads
    them: views of its polyvectors' coefficient terms, not copies."""
    return {part: {name: [{idx: f.terms for idx, f in pv.terms.items()}
                          for _, pv in _slots(part, chunk)]
                   for name, chunk in chunks.items()}
            for part, chunks in cochain.items()}


def _move_entries(space, S: SubmanifoldData | None, entries: dict, src: str,
                  dst: str) -> dict:
    """The `chunk_entries` entries of a chart-src chunk, moved to chart dst.

    The entries move by one call of the edge's `Transition.move`, which
    gives an ambient chunk's result. A normal tuple's moved entries ((b,
    tidx, e), c) are taken in their order, restricted to the submanifold
    by `symbolic._zero_power`, `_set_zero`'s rule, and multiplied by the
    first-order matrix F = S.moved_first_order(dst, src) entry by entry:
    slot a on dst is sum_b F[a][b] times slot b moved, the non-zero
    F[a][b] listed per b by the edge's `SubmanifoldData.transport_plan`.
    A negative normal power raises NegativePowerAtZero by `_zeroed` on
    the first (b, tidx) group of `polyvector._landed` that holds one,
    with that group's message."""
    move = space._moves[(src, dst)]
    moved = move.move(entries)
    if not moved or len(next(iter(moved))) == 2:  # ambient keys (tidx, e)
        return moved
    out = {}
    pos, plan = S.transport_plan(dst, src)
    for (b, tidx, e), c in moved.items():
        z = _zero_power(e, pos)
        if z:
            if z < 0:
                for terms in _landed(move, entries).values():
                    _zeroed(move.target_vars, S.normal[dst], pos, terms)
            continue
        for a, fe, fc in plan[b]:
            if fe is None:
                _add_into(out, (((a, tidx, tuple(map(add, d, e))), dc * c)
                                for d, dc in fc.items()))
                continue
            # inline: through `_add_into`, `sections` ran 4-7% slower
            k = (a, tidx, tuple(map(add, fe, e)))
            v = out.get(k, 0) + fc * c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _sum_into(acc: dict, idx: tuple, terms: dict):
    """acc[idx] += terms, for {index tuple: terms} dicts, as `polyvector._acc`
    adds a coefficient: a zero addend is skipped, the terms are added by
    `symbolic._add_into` and an index whose sum cancels is deleted."""
    if terms:
        old = acc.get(idx)
        if old is None:
            acc[idx] = terms
        else:
            _add_into(old, terms.items())
            if not old:
                del acc[idx]


def _restricted(cvars: tuple, w: tuple, pos: tuple, acc: dict, s) -> dict:
    """s times the {index tuple: terms} dict acc with the normal variables w,
    at positions pos, set to zero by `_zeroed`, as `restrict` gives it."""
    out = {}
    for idx, terms in acc.items():
        kept = _zeroed(cvars, w, pos, terms)
        if kept:
            out[idx] = {e: c * s for e, c in kept.items()}
    return out


def cochain_lincomb(coeffs: Iterable[Fraction], cochains: Iterable[dict]) -> dict:
    """sum_j coeffs[j] * cochains[j] on the parts and charts of the terms
    with a non-zero coefficient, or zero on the first cochain's. Raw terms
    are scaled and summed slot by slot by `_sum_into`, in the order and
    scalar types of `Polyvector.__mul__` and `__add__`; chunks built once."""
    scaled = [(_as_scalar(s), c) for s, c in zip(coeffs, cochains) if s]
    if not scaled:
        first = next(iter(cochains), None)
        scaled = [(0, first)] if first else []
    sums = {}
    for s, cochain in scaled:
        for part in ("amb", "nor"):
            per = sums.setdefault(part, {}) if part in cochain else None
            for name, chunk in cochain.get(part, {}).items():
                slots = list(_slots(part, chunk))
                if name not in per:
                    pv = slots[0][1]
                    per[name] = (pv.vars, pv.degree, [{} for _ in slots])
                for (_, pv), acc in zip(slots, per[name][2] if s else ()):
                    for idx, f in pv.terms.items():
                        _sum_into(acc, idx, {e: c * s
                                             for e, c in f.terms.items()})
    return {part: {name: _chunk(part, *held) for name, held in
                   sums[part].items()}
            for part in ("amb", "nor") if part in sums}


def cochain_is_zero(a: dict) -> bool:
    return all(_part_is_zero(part, chunk) for part in ("amb", "nor")
               for chunk in a.get(part, {}).values())


def _vector(raw: dict) -> dict:
    """The linearisation of a cochain given by its raw terms, chart by chart
    in sorted order: key (part, chart) followed by the entry's key."""
    return {key: val for part in ("amb", "nor")
            for c in sorted(raw.get(part, {}))
            for key, val in _raw_entries(part, raw[part][c], (part, c))}


def cochain_vector_entries(a: dict):
    """(key, value) pairs of the linearisation `_vector` of a cochain."""
    return _vector(_raw(a)).items()


def coordinates(basis: list, cochain: dict):
    """Exact coordinates of a cochain in the span of the basis cochains.

    Returns (coefficients, None), or (None, position of a violated row among
    the sorted coordinate keys) when the cochain lies outside the span.
    """
    cols = [dict(cochain_vector_entries(c)) for c in basis]
    target = dict(cochain_vector_entries(cochain))
    sol, bad = solve_min(cols, target)
    if bad is not None:
        bad = sorted(set(target).union(*cols)).index(bad)
    return sol, bad


# ----------------------------------------------------------------------
# Descriptor
# ----------------------------------------------------------------------

KINDS = ("normal", "extended", "linebundle", "bivector")


class ComplexDescriptor:
    # plain classes on purpose: `dataclasses` costs about 14 ms a launch
    __slots__ = ("kind", "manifold", "submanifold", "linebundle", "_compiled")

    def __init__(self, kind: str, manifold: PoissonManifold,
                 submanifold: SubmanifoldData | None = None,
                 linebundle: PoissonLineBundle | None = None):
        self.kind = kind
        self.manifold = manifold
        self.submanifold = submanifold
        self.linebundle = linebundle
        # (part, chart, p) -> the index rules of `_rules`, on first use
        self._compiled = {}

    @property
    def space(self):
        return self.manifold.space

    @property
    def parts(self) -> tuple:
        """The cochain parts of this kind: "nor" and/or "amb"."""
        return (("nor",) if self.kind in ("normal", "extended") else ()) + (
            ("amb",) if self.kind != "normal" else ())

    def term_degree(self, part: str, p: int) -> int:
        """Polyvector degree of one part of a degree-p cochain."""
        return p if part == "nor" or self.kind == "linebundle" else p + 2

    def part_charts(self, part: str) -> tuple:
        """The charts one part of a cochain lives on."""
        return (self.submanifold.present_charts() if part == "nor"
                else self.space.chart_names)

    # ---- cochain structure --------------------------------------------
    def chunk(self, part: str, name: str, p: int, entries: dict):
        """The chunk of one part of a degree-p cochain on one chart whose
        `chunk_entries` are `entries`: r polyvectors for the normal part,
        one for the ambient part."""
        codim = self.submanifold.codim if part == "nor" else None
        return _chunk(part, self.space.chart(name).vars,
                      self.term_degree(part, p), _grouped(codim, entries))

    def zero_chunk(self, part: str, name: str, p: int):
        """The zero chunk of one part of a degree-p cochain on one chart."""
        return self.chunk(part, name, p, {})

    def zero_cochain(self, p: int) -> dict:
        return {part: {name: self.zero_chunk(part, name, p)
                       for name in self.part_charts(part)}
                for part in self.parts}

    # ---- differential --------------------------------------------------
    def twist(self, part: str, name: str):
        """The rows twist[a][b] of one part on one chart, as in the table of
        the module docstring; None where the part has no twist."""
        if part == "nor":
            return self.submanifold.structure_fields_restricted(name)
        if self.kind == "linebundle":
            return ((self.linebundle.fields[name],),)
        return None

    def _rules(self, part: str, name: str, p: int) -> tuple:
        """The index rules of d on one part of a degree-p cochain on one
        chart, kept per (part, chart, p): the chart variables, the normal
        variables and their positions among them (normal part only), the
        sign (-1)^p, the twist rows as raw terms (None where the part has no
        twist), the rules of `_ruled` under key None for the bracket, (a, b)
        for the wedge with twist[a][b] and a for the coupling through w_a,
        and the builder of the bracket's rules."""
        rules = self._compiled.get((part, name, p))
        if rules is None:
            cvars = self.space.chart(name).vars
            w = self.submanifold.normal[name] if part == "nor" else ()
            lam = {J: g.terms
                   for J, g in self.manifold.bivector(name).terms.items()}
            s = 1 if part == "nor" else -1
            twist = self.twist(part, name)
            rules = self._compiled[(part, name, p)] = (
                cvars, w, tuple(cvars.index(v) for v in w),
                -1 if p % 2 else 1, twist and [
                    [{J: g.terms for J, g in pv.terms.items()} for pv in row]
                    for row in twist], {},
                lambda idx: _bracket_rule(lam, idx, s))
        return rules

    def differential_terms(self, cochain: dict, p: int) -> dict:
        """d of a degree-p cochain given by its raw terms, by the one
        formula of the module docstring, applied through the index rules of
        `_rules` in the term order of `schouten` and `restrict`, as raw
        terms: {part: {chart: [{index tuple: terms}]}}, one dict per
        normal slot and one for the ambient part, with no index whose terms
        are empty. A cochain with no normal part starts from zero normal
        outputs on every present chart; one whose normal part leaves out a
        present chart that its ambient part holds starts that chart from
        zero before the coupling."""
        if self.kind not in KINDS:
            raise InconsistentData(f"unknown complex kind {self.kind!r}")
        S, parts = self.submanifold, self.parts
        out = {}
        for part in ("amb", "nor"):
            if part not in parts:
                continue
            given = cochain.get(part, {})
            res = out[part] = {} if given or part == "amb" else {
                name: [{} for _ in range(S.codim)]
                for name in S.present_charts()}
            for name, raw in given.items():
                cvars, w, pos, sign, twist, rules, bracket = self._rules(
                    part, name, p)
                res[name] = vals = []
                for a, ra in enumerate(raw):
                    val = _ruled(ra, rules, None, bracket)
                    if part == "nor":
                        val = _restricted(cvars, w, pos, val, -1)
                    for b, pb in enumerate(raw if twist else ()):
                        for oidx, terms in _ruled(
                                pb, rules, (a, b), lambda idx: _wedge_rule(
                                    idx, twist[a][b], sign)).items():
                            _sum_into(val, oidx, terms)
                    vals.append(val)
            if part == "nor" and "amb" in parts:
                for name, (ra,) in cochain.get("amb", {}).items():
                    if not S.normal[name]:
                        continue
                    cvars, w, pos, sign, _, rules, _ = self._rules(part, name,
                                                                   p)
                    vals = res.setdefault(name, [{} for _ in range(S.codim)])
                    for a, wpos in enumerate(pos):
                        # w_a as raw terms {(): {e: 1}}, e its unit exponent
                        w_a = {(): {tuple(int(j == wpos)
                                          for j in range(len(cvars))): 1}}
                        coupling = _ruled(ra, rules, a, lambda idx: (
                            _bracket_rule(w_a, idx, 1)))
                        for oidx, terms in _restricted(cvars, w, pos, coupling,
                                                       sign).items():
                            _sum_into(vals[a], oidx, terms)
        return out

    def differential(self, cochain: dict, p: int) -> dict:
        """d of a degree-p cochain of chunks: `differential_terms` of its
        raw terms, built into chunks."""
        out = self.differential_terms(_raw(cochain), p)
        for part, res in out.items():
            degree = self.term_degree(part, p) + 1
            for name, vals in res.items():
                res[name] = _chunk(part, self.space.chart(name).vars, degree,
                                   vals)
        return out


def build_complex(kind: str, *, manifold: PoissonManifold | None = None,
                  submanifold: SubmanifoldData | None = None,
                  linebundle: PoissonLineBundle | None = None
                  ) -> ComplexDescriptor:
    if kind not in KINDS:
        raise InconsistentData(f"unknown complex kind {kind!r}")
    if kind in ("normal", "extended"):
        if submanifold is None:
            raise InconsistentData(f"{kind} complex needs submanifold data")
        manifold = submanifold.manifold
    if kind == "linebundle":
        if linebundle is None:
            raise InconsistentData("linebundle complex needs line-bundle data")
        submanifold = linebundle.submanifold
        manifold = submanifold.manifold
        if manifold.space.transitions:
            raise InconsistentData(
                "the scalar-slot complex runs on the single-chart engine only")
    if kind == "bivector" and manifold is None:
        raise InconsistentData("bivector complex needs a structured space")
    return ComplexDescriptor(kind, manifold, submanifold, linebundle)


def kept_complex(kind: str, over) -> ComplexDescriptor:
    """The bivector complex over a manifold, or the normal or extended one
    over a submanifold, built on first use and kept on that object, so that
    its users share one set of compiled rules: within a command, the parsed
    file keeps the one manifold and submanifold (`dsl.ProblemFile`)."""
    made = over._complexes.get(kind)
    if made is None:
        made = over._complexes[kind] = (
            build_complex(kind, manifold=over) if kind == "bivector"
            else build_complex(kind, submanifold=over))
    return made


# ----------------------------------------------------------------------
# Global sections over an atlas
# ----------------------------------------------------------------------

class SectionSpace:
    __slots__ = ("basis", "degree_bound")

    def __init__(self, basis: list, degree_bound: int):
        self.basis = basis
        self.degree_bound = degree_bound

    @property
    def dimension(self) -> int:
        return len(self.basis)


def suggested_bound(space) -> int:
    worst = 0
    for tmap in space.transitions.values():
        for expr in tmap.values():
            for e in expr.terms:
                worst = max(worst, max(abs(x) for x in e) if e else 0)
    return worst + 3


def transport_nor_tuple(S: SubmanifoldData, tup, src: str, dst: str):
    """Identify a chart-src normal tuple on chart dst: its entries moved by
    `_move_entries`, gathered into a tuple again."""
    moved = _move_entries(S.space, S, dict(chunk_entries("nor", tup)), src,
                          dst)
    return _chunk("nor", S.space.chart(dst).vars, tup[0].degree,
                  _grouped(S.codim, moved))


# ----------------------------------------------------------------------
# Cech total complex
# ----------------------------------------------------------------------

def _transport(descriptor: ComplexDescriptor, part: str, data, src: str,
               dst: str):
    """One part of a chart-src cochain, moved to chart dst."""
    if part == "nor":
        return transport_nor_tuple(descriptor.submanifold, data, src, dst)
    return descriptor.space.pushforward(data, src, dst)


def _minus(part: str, x, y):
    """x - y for one part of a cochain; x None counts as zero."""
    if x is None:
        return _chunk_map(part, neg, y)
    return _chunk_map(part, sub, x, y)


def _part_is_zero(part: str, chunk) -> bool:
    return all(pv.is_zero() for _, pv in _slots(part, chunk))


def total_coboundary(descriptor: ComplexDescriptor, cochain: dict) -> tuple:
    """Degree-one total cochain (chart part, overlap part) of a degree-zero
    chartwise cochain c.

    The chart part is d(c). The overlap part holds, per cochain part and per
    ordered overlap (i, k) of the atlas, c_i - (c_k moved to chart i) on
    chart i: {"nor"|"amb": {(i, k): ...}}. A chart the cochain leaves out
    counts as zero, and an overlap it holds neither chart of is left out.
    Normal parts need both charts present.
    """
    present = (descriptor.submanifold.present_charts()
               if "nor" in descriptor.parts else ())
    overlap = {}
    for part in descriptor.parts:
        if part not in cochain:
            continue
        data = cochain[part]
        out = overlap[part] = {}
        for (i, k) in descriptor.space.overlap_pairs():
            if i == k or (i not in data and k not in data):
                continue
            if part == "nor" and (i not in present or k not in present):
                continue
            if k not in data:
                out[(i, k)] = data[i]
            else:
                out[(i, k)] = _minus(part, data.get(i), _transport(
                    descriptor, part, data[k], k, i))
    return descriptor.differential(cochain, 0), overlap


def total_closedness(descriptor: ComplexDescriptor, chart: dict,
                     overlap: dict) -> dict:
    """Exact closedness identities of a degree-one total cochain, given in
    the shape `total_coboundary` returns: a degree-one cochain b per chart
    and a degree-zero cochain a_ik per ordered overlap (i, k), on chart i.
    Per part:

    - closed: d(b) = 0 on every chart;
    - step:   b_i - (b_k moved to chart i) = d(a_ik) on every overlap;
    - triple: a_ik = a_ij + (a_jk moved to chart i) whenever the three
              overlaps are given.

    Returns {"normal-closed": True, ..., "ambient-triple": True} for the
    descriptor's parts; raises ClosednessViolation naming the identities that
    fail.
    """
    d_chart = descriptor.differential(chart, 1)
    d_overlap = {pair: descriptor.differential(
        {q: {pair[0]: given[pair]} for q, given in overlap.items()
         if pair in given}, 0) for pair in set().union(*overlap.values())}
    certs = {}
    for part in descriptor.parts:
        label = PART_LABELS[part]
        given = overlap.get(part, {})
        certs[f"{label}-closed"] = all(
            _part_is_zero(part, v) for v in d_chart[part].values())
        certs[f"{label}-step"] = all(_part_is_zero(part, _minus(
            part, _minus(part, chart[part][i], _transport(
                descriptor, part, chart[part][k], k, i)),
            d_overlap[(i, k)][part][i])) for (i, k) in given)
        certs[f"{label}-triple"] = all(_part_is_zero(part, _minus(
            part, _minus(part, given[(i, k)], given[(i, j)]),
            _transport(descriptor, part, given[(j, k)], j, i)))
            for (i, j) in given for (j2, k) in given
            if j2 == j and k != i and (i, k) in given)
    failed = [name for name, ok in certs.items() if not ok]
    if failed:
        raise ClosednessViolation(
            "cocycle fails exact closedness: " + ", ".join(sorted(failed)))
    return certs


def gluing_failure(overlap: dict):
    """First (part, k, i), normal parts before ambient ones, at which the
    overlap part of a total coboundary is non-zero; None when the degree-zero
    cochain it came from glues."""
    for part in ("nor", "amb"):
        for (i, k), val in overlap.get(part, {}).items():
            if not _part_is_zero(part, val):
                return part, k, i
    return None


# ----------------------------------------------------------------------
# Monomial unknowns and the total-coboundary system
# ----------------------------------------------------------------------

def monomial_atoms(descriptor: ComplexDescriptor, part: str, p: int, charts,
                   bound: int) -> list:
    """The one-monomial unknowns of one part of degree-p cochains on the
    given charts, of coefficient degree <= bound.

    An atom is the coordinate key that `cochain_vector_entries` gives the
    single entry of its cochain: ("nor", chart, slot, idx, e) or
    ("amb", chart, idx, e). Normal atoms vary only the tangential exponents.
    Within each (chart, slot, idx) the exponents come in graded-lex order,
    total degree first, so that `solve_min`'s solution is graded-lex minimal.
    """
    atoms = []
    for name in charts:
        cvars = descriptor.space.chart(name).vars
        if part == "nor":
            S = descriptor.submanifold
            free = S.tangential[name]
            heads = [("nor", name, a) for a in range(S.codim)]
        else:
            free, heads = cvars, [("amb", name)]
        pos = [cvars.index(v) for v in free]
        exps = []
        for e_free in sorted(_simplex(len(free), bound),
                             key=lambda t: (sum(t), t)):
            e = [0] * len(cvars)
            for i, x in zip(pos, e_free):
                e[i] = x
            exps.append(tuple(e))
        atoms += [head + (idx, e) for head in heads for idx in combinations(
            range(len(cvars)), descriptor.term_degree(part, p)) for e in exps]
    return atoms


def atom_cochain(descriptor: ComplexDescriptor, p: int, atom) -> dict:
    """The degree-p cochain whose single entry is the monomial `atom`, held
    on the atom's chart only."""
    part, name = atom[:2]
    return {part: {name: descriptor.chunk(part, name, p, {atom[2:]: 1})}}


def _atom_terms(descriptor: ComplexDescriptor, atom) -> dict:
    """The raw terms of `atom_cochain`'s cochain."""
    codim = descriptor.submanifold.codim if atom[0] == "nor" else None
    return {atom[0]: {atom[1]: _grouped(codim, {atom[2:]: 1})}}


def _padded(descriptor: ComplexDescriptor, p: int, atom) -> dict:
    """`atom_cochain` with every other chart and part present as zero."""
    z = descriptor.zero_cochain(p)
    z[atom[0]][atom[1]] = atom_cochain(descriptor, p, atom)[atom[0]][atom[1]]
    return z


def total_rows(chart: dict, overlap: dict, labels: dict) -> dict:
    """Equation rows {key: value} of a degree-one total cochain, given in the
    shape `total_coboundary` returns. A key is (label, chart, [slot,] idx, e)
    for the chart part and (label, i, k, [slot,] idx, e) for the overlap
    part, with label = labels[(part, "chart" | "overlap")]."""
    rows = {}
    for where, data in (("chart", chart), ("overlap", overlap)):
        for part, per in data.items():
            label = labels[(part, where)]
            for at, val in per.items():
                head = (label,) + (at if where == "overlap" else (at,))
                for key, v in chunk_entries(part, val):
                    rows[head + key] = v
    return rows


def atom_rows(descriptor: ComplexDescriptor, atom, labels: dict) -> dict:
    """`total_rows` of the total coboundary of `atom_cochain(descriptor, 0,
    atom)`, built from the atom's entries: the same keys in the same order,
    and the same values and scalar types.

    The chart part is d of the atom's raw terms, read as entries. On
    each overlap (i, k) of the atom's part that holds its chart, the atom
    enters as itself when i is its chart and as its entry moved to chart i
    by `_move_entries`, negated, when k is. A degree-zero entry moves into
    `chunk_entries`' order as it is: a normal one has the one index tuple
    (), so its moved entries come slot by slot, and an ambient one's come
    index tuple by index tuple. The overlaps are taken first, as
    `total_coboundary` takes them, so a negative normal power raises the
    same NegativePowerAtZero."""
    part, name, key = atom[0], atom[1], atom[2:]
    space, S = descriptor.space, descriptor.submanifold
    charts = S.present_charts() if part == "nor" else space.chart_names
    label, overlap = labels[(part, "overlap")], {}
    for (i, k) in space.overlap_pairs():
        if i == k or name not in (i, k) or i not in charts or k not in charts:
            continue
        if i == name:
            overlap[(label, i, k) + key] = 1
        else:
            for e, c in _move_entries(space, S, {key: 1}, k, i).items():
                overlap[(label, i, k) + e] = -c
    rows = {}
    for q, res in descriptor.differential_terms(
            _atom_terms(descriptor, atom), 0).items():
        for at, vals in res.items():
            rows.update(_raw_entries(q, vals, (labels[(q, "chart")], at)))
    rows.update(overlap)
    return rows


class CoboundarySystem:
    """Whether a degree-one total cochain is the total coboundary of a
    combination of fixed degree-zero unknowns: the monomial atoms `atoms`,
    then the cochains `others`.

    `rows` linearises any total cochain under the row labels `labels`, and
    `solve` answers the question for one. Each unknown's column, `atom_rows`
    of an atom and `total_rows` of another unknown's total coboundary, is
    built at most once, with the set of rows they reach, when `columns` is
    first read: by the first `solve` of a non-empty right-hand side, which
    is the only one that needs them. `unknowns`, the unknowns as cochains,
    the atoms' by `atom_cochain`, is likewise built when first read.
    """

    __slots__ = ("descriptor", "atoms", "others", "labels", "_columns",
                 "_reached", "_unknowns")

    def __init__(self, descriptor: ComplexDescriptor, atoms: list,
                 labels: dict, others: list = ()):
        self.descriptor = descriptor
        self.atoms = atoms
        self.others = list(others)
        self.labels = labels
        self._columns = None
        self._reached = None
        self._unknowns = None

    @property
    def columns(self) -> list:
        """One sparse column {row key: value} per unknown, in unknown order,
        built on first read."""
        if self._columns is None:
            columns = [atom_rows(self.descriptor, atom, self.labels)
                       for atom in self.atoms]
            columns += [self.rows(total_coboundary(self.descriptor, cochain))
                        for cochain in self.others]
            self._reached = set().union(*columns)
            self._columns = columns
        return self._columns

    @property
    def unknowns(self) -> list:
        """The unknowns as degree-zero cochains, in column order."""
        if self._unknowns is None:
            self._unknowns = [atom_cochain(self.descriptor, 0, atom)
                              for atom in self.atoms] + self.others
        return self._unknowns

    def rows(self, total: tuple) -> dict:
        """`total_rows` of a total cochain (chart part, overlap part)."""
        return total_rows(*total, self.labels)

    def solve(self, total: tuple) -> tuple:
        """Solve sum_j x_j columns[j] = rows(total) exactly. Returns (x, None,
        None) with `solve_min`'s solution; (None, row, None) with the
        smallest row that no column reaches; or (None, None, witness) with
        `solve_min`'s witness row.

        An empty right-hand side gives the zero solution, a plain int 0 per
        unknown, and reads no column. That is what the columns would give:
        no row is unreached, and in `solve_min` no row of the augmented
        matrix holds the right-hand-side column, since the right-hand side
        has no entry and elimination only combines rows. So that column is
        never a pivot, no inconsistency is found, every free variable is
        0, and every pivot variable is its reduced row's right-hand-side
        entry, which is absent, so 0.
        """
        rhs = self.rows(total)
        if not rhs:
            return [0] * (len(self.atoms) + len(self.others)), None, None
        columns = self.columns
        unreached = min((k for k in rhs if k not in self._reached),
                        default=None)
        if unreached is not None:
            return None, unreached, None
        x, witness = solve_min(columns, rhs)
        return x, None, witness


# ----------------------------------------------------------------------
# Global sections from a root-chart ansatz
# ----------------------------------------------------------------------

def _section_tree(descriptor: ComplexDescriptor, part: str):
    """The part's charts and the spanning tree, rooted at the first chart,
    along which the section search moves its atoms."""
    charts = list(descriptor.part_charts(part))
    tree = (descriptor.space.spanning_tree(charts[0], charts)
            if len(charts) > 1 else [])
    return charts, tree


def _sections_and_next_dimension(descriptor, part, bound, moved):
    """The part's degree-zero sections at coefficient degree <= bound, and
    the dimension of its sections at bound + 1.

    The root-chart atoms are taken at bound + 1, the k of degree <= bound
    first in their order, and one kernel is taken of all their columns; its
    length is the dimension at bound + 1. Its vectors that are zero past
    the first k entries come first, and cut to k entries they are the
    kernel of the first k columns alone, entry for entry: the reduced rows
    that pivot on the first k columns, cut to them, are the reduced form of
    those columns, and the other reduced rows are zero there. Each atom is
    moved along the spanning tree once, as entries, and `moved` (atom to
    {chart: entries}) carries them from one bound to the next. A column is
    an atom's negative-exponent entries, and a section the sum of its
    kernel vector's atoms' entries. The root chart holds the atom itself,
    never negative, so a column is read from the tree's other charts only.
    """
    charts, tree = _section_tree(descriptor, part)
    space, S = descriptor.space, descriptor.submanifold
    atoms = monomial_atoms(descriptor, part, 0, charts[:1], bound + 1)
    for atom in atoms:
        if atom not in moved:
            on = moved[atom] = {charts[0]: {atom[2:]: 1}}
            for (parent, child) in tree:
                on[child] = _move_entries(space, S, on[parent], parent, child)
    below = [atom for atom in atoms if sum(atom[-1]) <= bound]
    above = [atom for atom in atoms if sum(atom[-1]) > bound]
    kernel = nullspace([{(cname,) + key: val for _, cname in tree
                         for key, val in moved[atom][cname].items()
                         if min(key[-1]) < 0}
                        for atom in below + above])
    sections = []
    for vec in kernel:
        if any(vec[len(below):]):
            break
        total = {cname: {} for cname in charts}
        for x, atom in zip(vec, below):
            if x:
                for cname, entries in moved[atom].items():
                    _add_into(total[cname], ((key, x * val)
                                             for key, val in entries.items()))
        sections.append({part: {
            cname: descriptor.chunk(part, cname, 0, entries)
            for cname, entries in total.items()}})
    return sections, len(kernel)


def global_sections(descriptor: ComplexDescriptor, bound: int | None = None,
                    max_bound: int = 12) -> SectionSpace:
    """Basis of global sections of the degree-zero term of the complex, via a
    root-chart ansatz transported along a spanning tree; certified stable
    when the dimension agrees at the bound and the bound plus one."""
    parts = descriptor.parts
    b = bound if bound is not None else suggested_bound(descriptor.space)
    if not descriptor.space.transitions:
        # single chart: every bounded cochain is a section; enumerate directly
        return SectionSpace([atom_cochain(descriptor, 0, atom)
                             for part in parts for atom in monomial_atoms(
                                 descriptor, part, 0,
                                 descriptor.part_charts(part), b)], b)
    moved = {part: {} for part in parts}
    while True:
        basis, d_next = [], 0
        for part in parts:
            sections, d = _sections_and_next_dimension(
                descriptor, part, b, moved[part])
            basis += sections
            d_next += d
        if len(basis) == d_next:
            return SectionSpace(basis, b)
        if b + 1 >= max_bound:
            raise UnstableAnsatz(
                f"section dimension still changing at degree bound {b + 1}: "
                f"{ {b: len(basis), b + 1: d_next} }")
        b += 1


# ----------------------------------------------------------------------
# Degree-zero hypercohomology over the atlas
# ----------------------------------------------------------------------

class CohomologyReport:
    __slots__ = ("kind", "engine", "dimension", "basis", "degree_bound",
                 "stable", "section_dimension", "weights", "truncated",
                 "notes")

    def __init__(self, kind: str, engine: str, dimension: int | None,
                 basis: list, degree_bound: int | None = None,
                 stable: bool = True, section_dimension: int | None = None,
                 weights: dict = None, truncated: bool = False,
                 notes: tuple = ()):
        self.kind = kind
        self.engine = engine
        self.dimension = dimension
        self.basis = basis
        self.degree_bound = degree_bound
        self.stable = stable
        self.section_dimension = section_dimension
        self.weights = {} if weights is None else weights
        self.truncated = truncated
        self.notes = notes


def h0_complex(descriptor: ComplexDescriptor,
               bound: int | None = None) -> CohomologyReport:
    """Kernel of the first differential on global sections."""
    space = global_sections(descriptor, bound)
    kernel = nullspace([_vector(descriptor.differential_terms(_raw(s), 0))
                        for s in space.basis])
    basis = [cochain_lincomb(vec, space.basis) for vec in kernel]
    return CohomologyReport(descriptor.kind, "atlas", len(basis), basis,
                            space.degree_bound, True, space.dimension)


# ----------------------------------------------------------------------
# Affine graded engine
# ----------------------------------------------------------------------

def _structure_weight(descriptor: ComplexDescriptor):
    """Common weight (coefficient degree minus frame degree) of the structure
    terms; None when the structure is not weight-homogeneous."""
    weights = set()
    for name in descriptor.space.chart_names:
        pv = descriptor.manifold.bivector(name)
        for coeff in pv.terms.values():
            weights.update(sum(e) - 2 for e in coeff.terms)
    for part in descriptor.parts:
        for name in descriptor.part_charts(part):
            for row in descriptor.twist(part, name) or ():
                for pv in row:
                    for coeff in pv.terms.values():
                        weights.update(sum(e) - 1 for e in coeff.terms)
    if not weights:
        return 0, True
    if len(weights) == 1:
        return weights.pop(), True
    return max(weights), False


def _weight_atoms(descriptor: ComplexDescriptor, p: int, weight: int):
    """Monomial atoms of the given weight for term degree p (single chart)."""
    charts = descriptor.space.chart_names[:1]
    atoms = []
    for part in descriptor.parts:
        need = weight + descriptor.term_degree(part, p)
        atoms += [atom for atom in monomial_atoms(descriptor, part, p, charts,
                                                  need) if sum(atom[-1]) == need]
    return atoms


def _weight_matrix(descriptor, p, w_in, w_out):
    """Matrix of the differential from weight w_in atoms at term p to weight
    w_out atoms at term p+1; returns (columns keyed by out-atom, in_atoms,
    the set of out_atoms). An atom is the `cochain_vector_entries` key of
    its entry, so a column is the linearised image itself."""
    in_atoms = _weight_atoms(descriptor, p, w_in)
    out_atoms = set(_weight_atoms(descriptor, p + 1, w_out))
    cols = []
    for atom in in_atoms:
        col = _vector(descriptor.differential_terms(
            _atom_terms(descriptor, atom), p))
        if any(val and key not in out_atoms for key, val in col.items()):
            raise InconsistentData(
                "differential left the graded window; structure is not "
                "weight-homogeneous")
        cols.append(col)
    return cols, in_atoms, out_atoms


def affine_hyper(descriptor: ComplexDescriptor, weights: Iterable[int],
                 degrees: tuple = (0, 1)) -> CohomologyReport:
    """Per-weight exact cohomology in degrees 0 and/or 1 on a single chart.

    With a weight-homogeneous structure the differential shifts weight by a
    fixed amount and the per-weight answers are exact; otherwise the top
    filtration weight is used and the report carries a truncation note.
    """
    if descriptor.space.transitions:
        raise InconsistentData("the graded engine needs a single-chart space")
    shift, homogeneous = _structure_weight(descriptor)
    notes = () if homogeneous else (
        "structure not weight-homogeneous: graded answers are the top "
        "filtration layer only",)
    weights = list(weights)
    report = CohomologyReport(descriptor.kind, "affine-graded", None, {},
                              truncated=not homogeneous, notes=notes)
    for w in weights:
        m0, in0, _ = _weight_matrix(descriptor, 0, w, w + shift)
        if 0 in degrees:
            kern = nullspace(m0)
            basis = [cochain_lincomb(vec, [_padded(descriptor, 0, a)
                                           for a in in0]) for vec in kern]
            report.basis[w] = basis
            report.weights.setdefault("H0", {})[w] = len(basis)
        if 1 in degrees:
            m1, in1, _ = _weight_matrix(descriptor, 1, w, w + shift)
            mprev, _, _ = _weight_matrix(descriptor, 0, w - shift, w)
            report.weights.setdefault("H1", {})[w] = (
                len(in1) - rank(m1) - rank(mprev))
    if "H0" in report.weights:
        report.dimension = sum(report.weights["H0"].values())
    return report


def semiregularity_image_rank(lb_descriptor: ComplexDescriptor,
                              nor_descriptor: ComplexDescriptor,
                              weight: int) -> int:
    """Rank of the image of the weight-w degree-1 cohomology of the scalar
    ambient complex inside the degree-1 cohomology of the restricted complex.

    Both complexes must live on the same single-chart space with the same
    structure; the restriction map sets the normal variable to zero and keeps
    every frame component.
    """
    S = nor_descriptor.submanifold
    chart = nor_descriptor.space.charts[0]
    w_names = S.normal[chart.name]
    shift, _ = _structure_weight(nor_descriptor)
    # cocycles upstairs
    m1, in1, _ = _weight_matrix(lb_descriptor, 1, weight, weight + shift)
    cocycles = nullspace(m1)
    atoms1 = [atom_cochain(lb_descriptor, 1, a) for a in in1]
    # coordinates downstairs, keyed by out-atom like the image
    image, _, out_atoms = _weight_matrix(nor_descriptor, 0, weight - shift,
                                         weight)

    def restrict_col(cochain):
        rest = restrict(cochain["amb"][chart.name], w_names)
        return {key: val for key, val in cochain_vector_entries(
            {"nor": {chart.name: [rest]}}) if key in out_atoms}

    restricted = [restrict_col(cochain_lincomb(vec, atoms1)) for vec in cocycles]
    return rank(image + restricted) - rank(image)


# ----------------------------------------------------------------------
# Characteristic map
# ----------------------------------------------------------------------

def family_direction(problem, phi, lam, te) -> dict:
    """The coefficient at parameter monomial `te` of a family given by its
    normal motions `phi` and bivectors `lam`, as a degree-zero cochain: the
    "nor" part on the present charts and, whenever the ambient structure
    varies (every mode but "fixed"), the "amb" part on every chart."""
    S, space = problem.submanifold, problem.space
    out = {"nor": {}}
    for name in S.present_charts():
        cvars = space.chart(name).vars
        out["nor"][name] = [Polyvector.from_function(
            ser.coefficient(te, LaurentPoly.zero(cvars)).with_vars(cvars))
            for ser in phi[name]]
    if problem.ambient_varies:
        out["amb"] = {name: lam[name].coefficient(
            te, Polyvector.zero(space.chart(name).vars, 2))
            for name in space.chart_names}
    return out


def first_order_directions(state) -> list:
    """The first-order directions of a family as degree-zero cochains, one
    per parameter (`family_direction` at each unit monomial)."""
    n = len(state.params)
    return [family_direction(state.problem, state.phi, state.lam,
                             tuple(int(i == rho) for i in range(n)))
            for rho in range(n)]


def characteristic_map(descriptor: ComplexDescriptor, basis: list, state) -> list:
    """Coordinates, in the given degree-zero basis, of the first-order
    directions of a family (one coordinate vector per parameter).

    The directions are certified to glue and to be closed before solving;
    NotInKernel otherwise.
    """
    out = []
    for pname, direction in zip(state.params, first_order_directions(state)):
        chart, overlap = total_coboundary(descriptor, direction)
        if not cochain_is_zero(chart):
            raise NotInKernel(
                f"first-order direction of {pname} is not closed")
        failure = gluing_failure(overlap)
        if failure is not None:
            part, k, i = failure
            what = "direction" if part == "nor" else "bivector direction"
            raise NotInKernel(f"first-order {what} of {pname} does not glue "
                              f"between {k} and {i}")
        sol, bad = coordinates(basis, direction)
        if sol is None:
            raise InconsistentData(
                f"direction of {pname} lies outside the provided basis "
                f"(failing row {bad})")
        out.append(sol)
    return out


# ----------------------------------------------------------------------
# Truncated atlas estimate for degree one
# ----------------------------------------------------------------------

def atlas_hyper_truncated(descriptor: ComplexDescriptor, bound: int) -> CohomologyReport:
    """Window-truncated degree-1 dimension estimate over a multi-chart atlas.

    Uses an overlap double complex whose coordinates are the monomials with
    Laurent exponents |e|_1 <= bound, the window. NOT exact; the report is
    flagged truncated. Supported for the restricted-tuple and
    ambient-polyvector kinds.

    The estimate is dim ker d1 - rank d0. Each column of either map is the
    image of one monomial atom, a cochain with one non-zero chunk. The maps
    are linear, so a column is assembled from the pieces that chunk enters,
    each embedded in its slot with its sign:
    - an overlap atom a on (i, k) enters each triple that holds the pair, as
      +a, -a or a moved to the triple's third chart, and its own pair slot
      as d(a);
    - a degree-one chart atom b enters each pair that holds its chart, as
      -(b moved to the pair's second chart) or +b;
    - a degree-zero chart atom c of the image enters each pair that holds
      its chart, as c moved there or -c, and its own chart slot as d(c).
    Every other piece is a transport or differential of a zero chunk, zero,
    and is never formed. Each transport and differential is made once per
    atom and destination chart. Nothing is clipped: `embed` indexes only the
    window's atoms and so drops every entry outside it, and summing the
    pieces before or after that projection gives the same column.
    """
    if descriptor.kind not in ("normal", "bivector"):
        raise InconsistentData(
            "truncated atlas estimate supports the restricted-tuple and "
            "ambient-polyvector kinds only")
    is_nor = descriptor.kind == "normal"
    part = "nor" if is_nor else "amb"
    space = descriptor.space
    S = descriptor.submanifold
    charts = list(descriptor.part_charts(part))
    pairs = [(i, k) for i in charts for k in charts
             if i < k and (i, k) in space.transitions]
    triples = [t for t in space.triples(charts) if t[0] < t[1] < t[2]]

    def window(nv, b):
        if nv == 0:
            yield ()
            return
        for h in range(-b, b + 1):
            for t in window(nv - 1, b - abs(h)):
                yield (h,) + t

    @cache
    def atoms(cname, p):
        """The window's atoms of a degree-p chunk on chart cname, keyed as
        `chunk_entries` keys their entries, listed once per chart and
        degree."""
        chart = space.chart(cname)
        n = len(chart.vars)
        deg = descriptor.term_degree(part, p)
        tvars = S.tangential[cname] if is_nor else chart.vars
        tpos = [chart.vars.index(v) for v in tvars]
        heads = [(a,) for a in range(S.codim)] if is_nor else [()]
        out = []
        for head in heads:
            for idx in combinations(range(n), deg):
                for e_t in window(len(tvars), bound):
                    e = [0] * n
                    for pos, x in zip(tpos, e_t):
                        e[pos] = x
                    out.append(head + (idx, tuple(e)))
        return out

    # each atom recurs in the kernel and the image: move and differentiate
    # it once per call. A piece's chunk is given by its entries
    @cache
    def transport(cname, atom, dst):
        """The entries of a chart-cname atom moved to chart dst."""
        return _move_entries(space, S, {atom: 1}, cname, dst)

    @cache
    def d_chunk(cname, atom):
        """The entries of the differential of a degree-0 chart-cname atom."""
        return dict(_raw_entries(part, descriptor.differential_terms(
            _atom_terms(descriptor, (part, cname) + atom), 0)[part][cname]))

    def layout(slots):
        """(row offset, atom index) of each (chart, term degree) slot, by
        the slot's key."""
        out, offset = {}, 0
        for key, cname, p in slots:
            al = atoms(cname, p)
            out[key] = (offset, {a: i for i, a in enumerate(al)})
            offset += len(al)
        return out

    def embed(pieces, slots):
        """Sparse column, keyed by row position, of the signed chunks
        (sign, entries, slot key); entries outside the window and entries
        that cancel are dropped."""
        col = {}
        for sign, entries, key in pieces:
            base, index = slots[key]
            _add_into(col, ((base + index[entry], sign * val)
                            for entry, val in entries.items()
                            if entry in index))
        return col

    def on_pairs(cn, atom, sign):
        """sign * (c_i moved to chart k - c_k) on each pair (i, k) that
        holds cn, for the chart-cn atom c."""
        pieces = []
        for (i, k) in pairs:
            if i == cn:
                pieces.append((sign, transport(cn, atom, k), (i, k)))
            elif k == cn:
                pieces.append((-sign, {atom: 1}, (i, k)))
        return pieces

    # degree-1 cochains: overlap chunks of degree 0 and chart chunks of
    # degree 1; d1 lands on triples (degree 0) and pairs (degree 1)
    target = layout([(t, t[2], 0) for t in triples] +
                    [(pr, pr[1], 1) for pr in pairs])
    cols = []
    for (pi, pk) in pairs:
        for atom in atoms(pk, 0):
            pieces = []
            for t in triples:
                if t[1:] == (pi, pk):
                    pieces.append((1, {atom: 1}, t))
                elif (t[0], t[2]) == (pi, pk):
                    pieces.append((-1, {atom: 1}, t))
                elif t[:2] == (pi, pk):
                    pieces.append((1, transport(pk, atom, t[2]), t))
            pieces.append((1, d_chunk(pk, atom), (pi, pk)))
            cols.append(embed(pieces, target))
    for cn in charts:
        for atom in atoms(cn, 1):
            cols.append(embed(on_pairs(cn, atom, -1), target))
    kernel_dim = len(cols) - rank(cols)

    # image of the degree-0 map in the SAME domain coordinates as the kernel
    domain = layout([(pr, pr[1], 0) for pr in pairs] +
                    [(c, c, 1) for c in charts])
    im_cols = []
    for cn in charts:
        for atom in atoms(cn, 0):
            pieces = on_pairs(cn, atom, 1) + [(1, d_chunk(cn, atom), cn)]
            im_cols.append(embed(pieces, domain))
    rank_d0 = rank(im_cols)
    return CohomologyReport(descriptor.kind, "atlas-truncated",
                            kernel_dim - rank_d0, [], degree_bound=bound,
                            stable=False, truncated=True,
                            notes=("window-truncated estimate; not exact",))
