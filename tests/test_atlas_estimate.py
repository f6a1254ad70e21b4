"""`complexes.atlas_hyper_truncated` against the engine it replaced.

The window estimate used to build every column from a full degree-one
cochain, zero on every chunk but one, and ran each transport and
differential over all the chunks. It is kept here verbatim as an oracle,
the way `test_monomial_atoms` keeps the enumerators it replaced. The
engine now assembles a column from the chunks its atom enters; it must
report the same dimension, bound, flag and notes on every multi-chart
example, and transport and differentiate only non-zero atoms, each once.
"""

import os
from itertools import combinations

import pytest

from conftest import EXAMPLES
from poissondef import complexes
from poissondef.complexes import (CohomologyReport, ComplexDescriptor,
                                  _move_entries, atlas_hyper_truncated,
                                  build_complex, transport_nor_tuple)
from poissondef.dsl import parse
from poissondef.errors import InconsistentData
from poissondef.geometry import codim1_line_bundle
from poissondef.linalg import rank
from poissondef.polyvector import Polyvector, schouten
from poissondef.symbolic import LaurentPoly


# ----------------------------------------------------------------------
# The replaced engine, verbatim
# ----------------------------------------------------------------------

def old_atlas_hyper_truncated(descriptor: ComplexDescriptor, bound: int) -> CohomologyReport:
    """Window-truncated degree-1 dimension estimate over a multi-chart atlas.

    Uses an overlap double complex with all Laurent exponents clipped to
    |e|_1 <= bound. NOT exact; the report is flagged truncated. Supported for
    the restricted-tuple and ambient-polyvector kinds.
    """
    if descriptor.kind not in ("normal", "bivector"):
        raise InconsistentData(
            "truncated atlas estimate supports the restricted-tuple and "
            "ambient-polyvector kinds only")
    is_nor = descriptor.kind == "normal"
    space = descriptor.space
    S = descriptor.submanifold
    charts = list(S.present_charts()) if is_nor else list(space.chart_names)
    pairs = [(i, k) for i in charts for k in charts
             if i < k and (i, k) in space.transitions and (k, i) in space.transitions]
    triples = [(i, j, k) for i in charts for j in charts for k in charts
               if i < j < k and all(p in space.transitions
                                    for p in [(i, j), (j, k), (i, k)])]

    def window(nv, b):
        if nv == 0:
            yield ()
            return
        for h in range(-b, b + 1):
            for t in window(nv - 1, b - abs(h)):
                yield (h,) + t

    def clip(pv):
        return Polyvector(pv.vars, pv.degree, {
            idx: LaurentPoly(pv.vars, {
                e: v for e, v in coeff.terms.items()
                if sum(abs(x) for x in e) <= bound})
            for idx, coeff in pv.terms.items()})

    def clip_chunk(data):
        return [clip(x) for x in data] if is_nor else clip(data)

    def zero_chunk(cname, p):
        cvars = space.chart(cname).vars
        if is_nor:
            return [Polyvector.zero(cvars, p) for _ in range(S.codim)]
        return Polyvector.zero(cvars, p + 2)

    def sub_chunk(x, y):
        if is_nor:
            return [a - b for a, b in zip(x, y)]
        return x - y

    def add_chunk(x, y):
        if is_nor:
            return [a + b for a, b in zip(x, y)]
        return x + y

    def transport(data, src, dst):
        if is_nor:
            return clip_chunk(transport_nor_tuple(S, data, src, dst))
        return clip(space.pushforward(data, src, dst))

    def d_chunk(data, cname, p):
        if is_nor:
            return clip_chunk(descriptor.differential(
                {"nor": {cname: data}}, p)["nor"][cname])
        return clip(-schouten(data, descriptor.manifold.bivector(cname)))

    def atoms(cname, p):
        chart = space.chart(cname)
        n = len(chart.vars)
        deg = p if is_nor else p + 2
        tvars = S.tangential[cname] if is_nor else chart.vars
        tpos = [chart.vars.index(v) for v in tvars]
        slots = range(S.codim) if is_nor else [None]
        out = []
        for a in slots:
            for idx in combinations(range(n), deg):
                for e_t in window(len(tvars), bound):
                    e = [0] * n
                    for pos, x in zip(tpos, e_t):
                        e[pos] = x
                    out.append((a, idx, tuple(e)))
        return out

    def atom_chunk(cname, p, atom):
        chart = space.chart(cname)
        a, idx, e = atom
        pv = Polyvector(chart.vars, p if is_nor else p + 2,
                        {idx: LaurentPoly(chart.vars, {e: 1})})
        chunk = zero_chunk(cname, p)
        if is_nor:
            chunk[a] = pv
            return chunk
        return pv

    def layout(slots):
        """(row offset, atom index) of each (chart, term degree) slot."""
        out, offset = [], 0
        for cname, p in slots:
            al = atoms(cname, p)
            out.append((offset, {a: i for i, a in enumerate(al)}))
            offset += len(al)
        return out

    def embed(chunks, slots):
        """Sparse column, keyed by row position, of one chunk per slot."""
        col = {}
        for data, (base, index) in zip(chunks, slots):
            items = (enumerate(data) if is_nor else [(None, data)])
            for a, pv in items:
                for idx, coeff in pv.terms.items():
                    for e, val in coeff.terms.items():
                        i = index.get((a, idx, e))
                        if i is not None:
                            col[base + i] = col.get(base + i, 0) + val
        return col

    target = layout([(k, 0) for (_, _, k) in triples] +
                    [(k, 1) for (_, k) in pairs])

    def d1_vector(a_ov, b_ch):
        chunks = []
        for (i, j, k) in triples:
            t = add_chunk(sub_chunk(a_ov[(j, k)], a_ov[(i, k)]),
                          transport(a_ov[(i, j)], j, k))
            chunks.append(t)
        for (i, k) in pairs:
            m = sub_chunk(d_chunk(a_ov[(i, k)], k, 0),
                          sub_chunk(transport(b_ch[i], i, k), b_ch[k]))
            chunks.append(m)
        return embed(chunks, target)

    cols = []
    for (pi, pk) in pairs:
        for atom in atoms(pk, 0):
            a_ov = {pr: zero_chunk(pr[1], 0) for pr in pairs}
            a_ov[(pi, pk)] = atom_chunk(pk, 0, atom)
            b_ch = {c: zero_chunk(c, 1) for c in charts}
            cols.append(d1_vector(a_ov, b_ch))
    for cn in charts:
        for atom in atoms(cn, 1):
            a_ov = {pr: zero_chunk(pr[1], 0) for pr in pairs}
            b_ch = {c: zero_chunk(c, 1) for c in charts}
            b_ch[cn] = atom_chunk(cn, 1, atom)
            cols.append(d1_vector(a_ov, b_ch))
    kernel_dim = len(cols) - rank(cols)

    # image of the degree-0 map in the SAME domain coordinates as the kernel
    domain = layout([(k, 0) for (_, k) in pairs] + [(c, 1) for c in charts])
    im_cols = []
    for cn in charts:
        for atom in atoms(cn, 0):
            c_ch = {c: zero_chunk(c, 0) for c in charts}
            c_ch[cn] = atom_chunk(cn, 0, atom)
            a_ov = {(i, k): sub_chunk(transport(c_ch[i], i, k), c_ch[k])
                    for (i, k) in pairs}
            b_ch = {c: d_chunk(c_ch[c], c, 0) for c in charts}
            im_cols.append(embed([a_ov[pr] for pr in pairs] +
                                 [b_ch[c] for c in charts], domain))
    rank_d0 = rank(im_cols)
    return CohomologyReport(descriptor.kind, "atlas-truncated",
                            kernel_dim - rank_d0, [], degree_bound=bound,
                            stable=False, truncated=True,
                            notes=("window-truncated estimate; not exact",))


# ----------------------------------------------------------------------
# Same reports
# ----------------------------------------------------------------------

def _load(name):
    with open(os.path.join(EXAMPLES, name), encoding="utf-8") as fh:
        return parse(fh.read())


ATLAS_FILES = sorted(name for name in os.listdir(EXAMPLES)
                     if name.endswith(".pdef")
                     and _load(name).space.transitions)
# the normal kind needs a submanifold, which the bivector-only files lack
CASES = [(name, kind) for name in ATLAS_FILES for kind in ("normal", "bivector")
         if kind == "bivector" or _load(name).normal_spec]


def _descriptor(name, kind):
    doc = _load(name)
    if kind == "normal":
        return build_complex("normal", submanifold=doc.submanifold())
    return build_complex("bivector", manifold=doc.manifold())


def _report(rep):
    return rep.dimension, rep.degree_bound, rep.truncated, rep.notes


def test_every_multi_chart_example_is_compared():
    assert len(ATLAS_FILES) == 22 and len(CASES) == 37


@pytest.mark.parametrize("name,kind", CASES)
def test_estimate_matches_the_replaced_engine(name, kind):
    desc = _descriptor(name, kind)
    for bound in range(4):
        new = atlas_hyper_truncated(desc, bound)
        assert isinstance(new, CohomologyReport)
        assert _report(new) == _report(old_atlas_hyper_truncated(desc, bound))


def test_estimate_matches_the_replaced_engine_at_bound_four():
    desc = _descriptor("p3_hyperplane.pdef", "normal")
    assert (_report(atlas_hyper_truncated(desc, 4))
            == _report(old_atlas_hyper_truncated(desc, 4)))


def test_other_kinds_raise_as_before(p3_hyperplane_sub, c2):
    for desc in (build_complex("extended", submanifold=p3_hyperplane_sub),
                 build_complex("linebundle",
                               linebundle=codim1_line_bundle(c2[1]))):
        with pytest.raises(InconsistentData) as new:
            atlas_hyper_truncated(desc, 2)
        with pytest.raises(InconsistentData) as old:
            old_atlas_hyper_truncated(desc, 2)
        assert str(new.value) == str(old.value)


# ----------------------------------------------------------------------
# No work on zero chunks
# ----------------------------------------------------------------------

def _key(chunk):
    """Hashable value of a normal tuple given by its raw terms per slot, as
    `differential_terms` reads it."""
    return tuple(tuple((idx, tuple(sorted(terms.items())))
                       for idx, terms in sorted(slot.items()))
                 for slot in chunk)


def test_each_atom_is_moved_and_differentiated_once(descriptor_family,
                                                    monkeypatch):
    desc = descriptor_family["p3_hyperplane_normal"]
    moves, diffs = [], []
    differential = ComplexDescriptor.differential_terms

    def counted_move(space, S, entries, src, dst):
        moves.append((src, dst, tuple(entries.items())))
        return _move_entries(space, S, entries, src, dst)

    def counted_differential(self, cochain, p):
        diffs.extend((name, p, _key(tup))
                     for name, tup in cochain["nor"].items())
        return differential(self, cochain, p)

    monkeypatch.setattr(complexes, "_move_entries", counted_move)
    monkeypatch.setattr(ComplexDescriptor, "differential_terms",
                        counted_differential)
    rep = atlas_hyper_truncated(desc, 5)
    assert rep.dimension == 97
    # every call moves or differentiates one non-zero atom, at most once
    # per destination chart
    for calls in (moves, diffs):
        assert len(set(calls)) == len(calls)
    for *_, entries in moves:
        ((_, value),) = entries
        assert value == 1
    for *_, chunk in diffs:
        (terms,) = [slot for slot in chunk if slot]
        assert len(terms) == 1
    # at bound 5 a chart holds 61 degree-0 and 183 degree-1 atoms. Moved
    # along the pairs (U0, U1), (U0, U2), (U1, U2): the degree-1 atoms of U0
    # and U1 (3 * 183) and their degree-0 atoms (3 * 61), which the image and
    # the triple (U0, U1, U2) share; each degree-0 atom is differentiated
    # once, for the image and the overlaps alike
    assert len(moves) == 732
    assert len(diffs) == 183
