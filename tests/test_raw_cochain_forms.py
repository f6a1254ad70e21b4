"""The complex layer's raw-term paths against the chunk paths they replaced.

`ComplexDescriptor.differential_terms` reads and writes raw terms: per
slot, {index tuple: {exponent tuple: coefficient}}. An atom enters d as
raw terms and leaves as entries, h0's kernel columns are d's raw image,
and `cochain_lincomb` sums raw terms and builds each chunk once, where
`cochain_scale` and `cochain_add` built a polyvector for every scalar
multiple and every partial sum. Reports render terms sorted, so the digest
sweep cannot see term order; the oracle below compares h0's basis with the
parent body and the parent's `cochain_lincomb`, both kept verbatim, chart
by chart and polyvector by polyvector, term order and scalar types
included. The count test checks that the paths that only linearise build
no polyvector at all.
"""

from fractions import Fraction
from itertools import combinations
from operator import add
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import given, strategies as st

import poissondef
from test_cochain_chunks import SETTINGS, _cochain
from test_cochain_chunks import descriptors  # noqa: F401 (fixture)
from poissondef import complexes
from poissondef.cli import run_command
from poissondef.complexes import (CohomologyReport, _chunk_map, _slots,
                                  build_complex, chunk_entries,
                                  cochain_lincomb, global_sections,
                                  h0_complex)
from poissondef.dsl import parse
from poissondef.errors import NotPoissonSubmanifold
from poissondef.linalg import nullspace
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly

EXAMPLES = Path(poissondef.__file__).parent / "examples"
EXAMPLE_NAMES = sorted(p.name for p in EXAMPLES.glob("*.pdef"))


# ----------------------------------------------------------------------
# h0's basis against the parent body
# ----------------------------------------------------------------------

# the parent's cochain helpers and `h0_complex` body, verbatim

def _same(pv):
    return pv


def parent_cochain_add(a: dict, b: dict) -> dict:
    out = {}
    for part in ("amb", "nor"):
        if part in a or part in b:
            x, y = a.get(part, {}), b.get(part, {})
            out[part] = {c: _chunk_map(part, add, x[c], y[c])
                         if c in x and c in y else
                         _chunk_map(part, _same, x[c] if c in x else y[c])
                         for c in {**x, **y}}
    return out


def parent_cochain_scale(a: dict, s) -> dict:
    return {part: {c: _chunk_map(part, lambda v: v * s, chunk)
                   for c, chunk in a[part].items()}
            for part in ("amb", "nor") if part in a}


def parent_cochain_lincomb(coeffs: Iterable[Fraction],
                           cochains: Iterable[dict]) -> dict:
    acc = None
    for s, c in zip(coeffs, cochains):
        if not s:
            continue
        piece = parent_cochain_scale(c, s)
        acc = piece if acc is None else parent_cochain_add(acc, piece)
    if acc is not None:
        return acc
    first = next(iter(cochains), None)
    return parent_cochain_scale(first, 0) if first else {}


def parent_cochain_vector_entries(a: dict):
    for part in ("amb", "nor"):
        for c in sorted(a.get(part, {})):
            for key, val in chunk_entries(part, a[part][c]):
                yield (part, c) + key, val


def parent_h0_complex(descriptor, bound=None) -> CohomologyReport:
    """The parent `h0_complex`, verbatim but for the helpers' names."""
    space = global_sections(descriptor, bound)
    if not space.basis:
        return CohomologyReport(descriptor.kind, "atlas", 0, [],
                                space.degree_bound, True, 0)
    kernel = nullspace([dict(parent_cochain_vector_entries(
        descriptor.differential(s, 0))) for s in space.basis])
    basis = [parent_cochain_lincomb(vec, space.basis) for vec in kernel]
    return CohomologyReport(descriptor.kind, "atlas", len(basis), basis,
                            space.degree_bound, True, space.dimension)


def _layout(cochain: dict) -> list:
    """Every part, chart and slot of a cochain in order, with each
    polyvector's variables, degree, index tuples in order and terms in
    order, each value with its scalar type."""
    return [(part, name, type(chunk).__name__ if part == "nor" else None,
             [(pv.vars, pv.degree,
               [(idx, [(e, type(c).__name__, c) for e, c in f.terms.items()])
                for idx, f in pv.terms.items()])
              for _, pv in _slots(part, chunk)])
            for part, per in cochain.items() for name, chunk in per.items()]


def _file_complexes():
    """name: the bivector complex of each shipped file, and its normal and
    extended complexes where it declares a Poisson submanifold."""
    out = {}
    for name in EXAMPLE_NAMES:
        doc = parse((EXAMPLES / name).read_text())
        stem = name[:-len(".pdef")]
        out[f"{stem}_bivector"] = build_complex("bivector",
                                                manifold=doc.manifold())
        if doc.normal_spec:
            try:
                S = doc.submanifold()
            except NotPoissonSubmanifold:
                continue
            for kind in ("normal", "extended"):
                out[f"{stem}_{kind}"] = build_complex(kind, submanifold=S)
    return out


def _crowded(data, desc, p):
    """A degree-p cochain of desc on all its parts and charts whose terms
    use two exponents and coefficients +-1, so that sums of a few of them
    cancel terms and whole indices, and fill them again, often."""
    out = {}
    for part in desc.parts:
        out[part] = {}
        for name in desc.part_charts(part):
            cvars = desc.space.chart(name).vars
            deg = desc.term_degree(part, p)
            frames = list(combinations(range(len(cvars)), deg))
            exps = st.sampled_from(((0,) * len(cvars),
                                    (1,) + (0,) * (len(cvars) - 1)))
            pvs = [Polyvector(cvars, deg, {
                idx: LaurentPoly(cvars, terms) for idx, terms in data.draw(
                    st.dictionaries(st.sampled_from(frames), st.dictionaries(
                        exps, st.sampled_from((1, -1)), max_size=3),
                        max_size=3)).items()}) if frames else
                   Polyvector.zero(cvars, deg)
                   for _ in range(desc.submanifold.codim if part == "nor"
                                  else 1)]
            out[part][name] = pvs if part == "nor" else pvs[0]
    return out


@SETTINGS
@given(st.data())
def test_lincomb_keeps_the_parent_order_and_types(descriptors, data):
    """On random cochains of every kind: some with parts and charts left
    out, some crowded, so that terms and whole indices cancel and fill
    again."""
    desc = descriptors[data.draw(st.sampled_from(sorted(descriptors)))]
    p = data.draw(st.sampled_from((0, 1)))
    cochains = [data.draw(st.sampled_from((_cochain, _crowded)))(data, desc, p)
                for _ in range(4)]
    vec = data.draw(st.lists(st.sampled_from(
        (0, 1, -1, 1, -1, 2, Fraction(1, 2), Fraction(2), Fraction(-3, 2))),
        min_size=len(cochains), max_size=len(cochains)))
    assert _layout(cochain_lincomb(vec, cochains)) == _layout(
        parent_cochain_lincomb(vec, cochains))


def test_lincomb_keeps_an_index_whose_sum_fills_again():
    """An index whose first term cancels and whose next term fills it again
    keeps its place, as `Polyvector.__add__` keeps it."""
    cvars, name = ("x", "y"), "U"

    def amb(terms):
        return {"amb": {name: Polyvector(cvars, 1, {
            idx: LaurentPoly(cvars, t) for idx, t in terms.items()})}}

    a = amb({(0,): {(0, 0): 1}, (1,): {(0, 0): 1}})
    b = amb({(0,): {(0, 0): -1, (1, 0): 1}})
    got = cochain_lincomb([1, 1], [a, b])
    assert list(got["amb"][name].terms) == [(0,), (1,)]
    assert _layout(got) == _layout(parent_cochain_lincomb([1, 1], [a, b]))


@pytest.fixture(scope="module")
def h0_descriptors(descriptor_family):
    out = {f"family_{name}": desc
           for name, desc in descriptor_family.items()}
    out.update(_file_complexes())
    return out


def test_h0_basis_matches_the_parent_body(h0_descriptors):
    assert len(h0_descriptors) > 60
    nonzero = 0
    for name, desc in sorted(h0_descriptors.items()):
        new, old = h0_complex(desc), parent_h0_complex(desc)
        assert (new.dimension, new.degree_bound, new.section_dimension) == (
            old.dimension, old.degree_bound, old.section_dimension), name
        assert [_layout(c) for c in new.basis] == [
            _layout(c) for c in old.basis], name
        nonzero += bool(new.basis)
    assert nonzero > 50


# ----------------------------------------------------------------------
# No polyvector where a path only linearises
# ----------------------------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """A list that records each `Polyvector.__init__` and `_from_raw` call
    made while its `on` flag is set."""
    record = type("Record", (list,), {"on": False})()
    init, from_raw = Polyvector.__init__, Polyvector._from_raw

    def counted_init(self, *args, **kwargs):
        if record.on:
            record.append("__init__")
        init(self, *args, **kwargs)

    def counted_from_raw(*args):
        if record.on:
            record.append("_from_raw")
        return from_raw(*args)

    monkeypatch.setattr(Polyvector, "__init__", counted_init)
    monkeypatch.setattr(Polyvector, "_from_raw",
                        staticmethod(counted_from_raw))
    return record


def test_coboundary_columns_build_no_polyvector(built, monkeypatch):
    """`artin p3_line_bad --functor exthilb` solves for a non-zero class
    over 688 atom columns."""
    fget, sizes = complexes.CoboundarySystem.columns.fget, []

    def columns(self):
        built.on = self._columns is None
        try:
            out = fget(self)
        finally:
            built.on = False
        sizes.append(len(out))
        return out

    monkeypatch.setattr(complexes.CoboundarySystem, "columns",
                        property(columns))
    code, text = run_command(["artin", str(EXAMPLES / "p3_line_bad.pdef"),
                              "--functor", "exthilb"])
    assert code == 0 and "zero: no" in text
    assert sizes == [688]
    assert built == []


def test_graded_matrices_build_no_polyvector(built, monkeypatch):
    weight_matrix, calls = complexes._weight_matrix, []

    def counted(*args):
        calls.append(args[1:])
        built.on = True
        try:
            return weight_matrix(*args)
        finally:
            built.on = False

    monkeypatch.setattr(complexes, "_weight_matrix", counted)
    code, _ = run_command(["hyper", str(EXAMPLES / "c3_line.pdef"),
                           "--weights", "0..3"])
    assert code == 0
    assert {w for _, w, _ in calls} >= {0, 1, 2, 3}
    assert built == []


def test_h0_kernel_columns_build_no_polyvector(built, monkeypatch,
                                               h0_descriptors):
    """The columns are built between the return of `global_sections` and
    the kernel's `nullspace` call; the sections and the basis are chunks
    and are built as before. The first pass is counted too: the coupling
    rules read the normal coordinate as raw terms, so compiling the index
    rules builds no polyvector either."""
    sections, kernel = complexes.global_sections, complexes.nullspace

    def counted_sections(*args, **kwargs):
        out = sections(*args, **kwargs)
        built.on = True
        return out

    def counted_nullspace(columns):
        built.on = False
        return kernel(columns)

    names = ("family_p3_line_normal", "family_p2_extended",
             "p3_hyperplane_extended", "f4_extended_bivector")
    monkeypatch.setattr(complexes, "global_sections", counted_sections)
    monkeypatch.setattr(complexes, "nullspace", counted_nullspace)
    for name in names:
        assert h0_complex(h0_descriptors[name]).basis, name
    assert built == []
