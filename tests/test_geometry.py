"""Atlas validation, structure propagation, and submanifold extraction."""

from fractions import Fraction

import pytest

from conftest import example, product, pv_monomial
from poissondef import geometry
from poissondef.cli import run_command
from poissondef.errors import (ChartMismatch, InconsistentData,
                               NonAdaptedTransition, NotPoissonSubmanifold,
                               WrongCodimension)
from poissondef.geometry import (Chart, ChartedSpace, PoissonManifold,
                                 SubmanifoldData, affine_space, builtin_space,
                                 check_poisson_manifold, codim1_line_bundle,
                                 extract_submanifold, hirzebruch,
                                 projective_space, verify_submanifold_tensors)
from poissondef.symbolic import LaurentPoly


def _mono(vars, idx, exps, coeff=1):
    return pv_monomial(vars, idx, LaurentPoly(vars, {exps: Fraction(coeff)}))


# — atlases ------------------------------------------------------------------

@pytest.mark.parametrize("space", [
    projective_space(2),
    projective_space(3),
    hirzebruch(0),
    hirzebruch(1),
    hirzebruch(2),
    hirzebruch(3),
    hirzebruch(4),
    hirzebruch(5),
    affine_space(3),
], ids=lambda s: s.name)
def test_builtin_atlas_validates(space):
    report = space.validate()
    assert report["pass"]
    assert all(report["inverses"].values())
    assert all(report["cocycles"].values())


def _nested_triples(space, names):
    """The triple loops `validate` and `codim1_line_bundle` used to write."""
    out = []
    for i in names:
        for j in names:
            for k in names:
                if len({i, j, k}) != 3:
                    continue
                if ((i, j) in space.transitions and (j, k) in space.transitions
                        and (i, k) in space.transitions):
                    out.append((i, j, k))
    return out


def _chain_atlas():
    """Three affine lines glued A-B and B-C by w -> w + 1 and its inverse,
    with no overlap declared between A and C."""
    charts = [Chart(name, ("w",)) for name in "ABC"]
    w = LaurentPoly.variable(("w",), "w")
    one = LaurentPoly.const(("w",), 1)
    return ChartedSpace("chain", charts, {
        ("A", "B"): {"w": w + one}, ("B", "A"): {"w": w - one},
        ("B", "C"): {"w": w + one}, ("C", "B"): {"w": w - one}})


@pytest.mark.parametrize("space", [
    projective_space(3),
    hirzebruch(0),
    _chain_atlas(),
], ids=lambda s: s.name)
def test_triples_match_the_nested_loops(space):
    """On P3, on F0 = P1 x P1 and on an atlas with a missing overlap."""
    names = space.chart_names
    for subset in (names, names[1:], names[:2], names[::-1]):
        assert list(space.triples(subset)) == _nested_triples(space, subset)
    if space.name == "chain":
        assert list(space.triples(names)) == []
        assert space.validate()["cocycles"] == {}


def test_projective_space_shape():
    p3 = projective_space(3)
    assert p3.chart_names == ("U0", "U1", "U2", "U3")
    assert p3.chart("U0").vars == ("z1", "z2", "z3")
    assert len(p3.overlap_pairs()) == 12
    with pytest.raises(ChartMismatch):
        p3.chart("U9")


def test_hirzebruch_shape():
    f2 = hirzebruch(2)
    assert f2.chart_names == ("U1", "U2", "U3", "U4")
    assert f2.chart("U1").vars == ("z", "xi")
    assert f2.validate()["pass"]


def test_product_requires_disjoint_variables():
    with pytest.raises(InconsistentData):
        product(projective_space(1), projective_space(1))


def test_product_atlas():
    line = affine_space(1, ["w"])
    prod = product(projective_space(1), line)
    assert len(prod.chart_names) == 2
    for name in prod.chart_names:
        assert set(prod.chart(name).vars) == {"z1", "w"}
    assert prod.validate()["pass"]


def test_builtin_space_dispatch():
    assert builtin_space("P3").chart_names == projective_space(3).chart_names
    assert builtin_space("Pn", (2,)).chart_names == ("U0", "U1", "U2")
    assert builtin_space("Fm", (4,)).chart_names == ("U1", "U2", "U3", "U4")
    assert builtin_space("Affine", (3,)).chart_names == ("U",)
    with pytest.raises(InconsistentData):
        builtin_space("nope")


# — structure propagation and integrability ----------------------------------

def test_structure_propagates_from_one_chart(p3_manifold):
    report = check_poisson_manifold(p3_manifold)
    assert report["pass"]
    assert set(report["jacobi"]) == {"U0", "U1", "U2", "U3"}
    assert all(report["jacobi"].values())
    assert all(report["gluing"].values())


def test_jacobi_failure_detected():
    aff = affine_space(3, ["x", "y", "z"])
    vars = aff.chart("U").vars
    bad = _mono(vars, (0, 1), (0, 1, 0)) + _mono(vars, (0, 2), (1, 0, 0))
    M = PoissonManifold(aff, {"U": bad})
    report = check_poisson_manifold(M)
    assert not report["pass"]
    assert report["jacobi"]["U"] is False


def test_gluing_failure_detected():
    p2 = projective_space(2)
    vars = p2.chart("U0").vars
    lam = _mono(vars, (0, 1), (1, 0))
    good = PoissonManifold.from_chart_data(p2, {"U0": lam})
    tampered = dict(good.bivectors)
    tampered["U1"] = tampered["U1"] * Fraction(2)
    M = PoissonManifold(p2, tampered)
    report = check_poisson_manifold(M)
    assert not report["pass"]
    assert False in report["gluing"].values()


# — submanifold extraction ---------------------------------------------------

def test_hyperplane_extraction(p3_hyperplane_sub):
    data = p3_hyperplane_sub
    assert data.codim == 1
    assert data.present_charts() == ("U0", "U1", "U2")
    assert data.normal["U3"] is None
    assert data.tangential["U0"] == ("z1", "z2")
    assert data.checks["pass"]
    vars = data.space.chart("U0").vars
    inv1 = LaurentPoly(vars, {(-1, 0, 0): 1})
    inv2 = LaurentPoly(vars, {(0, -1, 0): 1})
    expected = {("U0", "U1"): inv1, ("U0", "U2"): inv1, ("U1", "U0"): inv1,
                ("U1", "U2"): inv2, ("U2", "U0"): inv2, ("U2", "U1"): inv2}
    got = {pair: mat[0][0] for pair, mat in data.first_order.items()}
    assert got == expected


def test_line_extraction(p3_line_sub):
    data = p3_line_sub
    assert data.codim == 2
    assert data.present_charts() == ("U0", "U2")
    assert set(data.first_order) == {("U0", "U2"), ("U2", "U0")}
    for mat in data.first_order.values():
        assert len(mat) == 2 and len(mat[0]) == 2
    assert data.checks["pass"]
    # re-certification is idempotent
    assert verify_submanifold_tensors(data)["pass"]


def test_structure_fields_shape(c3):
    _, data = c3
    assert data.codim == 2
    T = data.structure_fields["U"]
    assert len(T) == 2 and len(T[0]) == 2
    for row in T:
        for entry in row:
            assert entry.degree == 1


def test_section_search_restricts_each_structure_field_once(monkeypatch):
    """`h0 p3_hyperplane --complex extended --bound 6` differentiates every
    section, and the tensor certificates and the differential all read the
    restricted structure rows: each present chart's rows are built once, so
    each coefficient of each structure field is restricted exactly once, by
    `symbolic._zeroed` on its terms."""
    subs, restricted = [], []
    zeroed_ = geometry._zeroed
    rows_ = SubmanifoldData.structure_fields_restricted

    def record_zeroed(vars, names, pos, terms):
        restricted.append(terms)
        return zeroed_(vars, names, pos, terms)

    def record_rows(self, chart):
        subs.append(self)
        return rows_(self, chart)

    monkeypatch.setattr(geometry, "_zeroed", record_zeroed)
    monkeypatch.setattr(SubmanifoldData, "structure_fields_restricted",
                        record_rows)
    code, _ = run_command(["h0", example("p3_hyperplane.pdef"), "--complex",
                           "extended", "--bound", "6"])
    assert code == 0
    coefficients = {id(S): [f.terms for name in S.present_charts()
                            for row in S.structure_fields[name]
                            for entry in row for f in entry.terms.values()]
                    for S in subs}
    assert sum(map(len, coefficients.values())) >= 2
    for field_coefficients in coefficients.values():
        for terms in field_coefficients:
            assert sum(t is terms for t in restricted) == 1


def test_not_poisson_submanifold_raises():
    p2 = projective_space(2)
    vars = p2.chart("U0").vars
    M = PoissonManifold.from_chart_data(p2, {"U0": _mono(vars, (0, 1), (1, 0))})
    with pytest.raises(NotPoissonSubmanifold):
        extract_submanifold(M, {"U0": ["z2"], "U1": "absent", "U2": "absent"})


def test_non_adapted_transition_raises(p3_manifold):
    with pytest.raises(NonAdaptedTransition):
        extract_submanifold(p3_manifold, {"U0": ["z1"], "U1": ["z1"],
                                          "U2": "absent", "U3": "absent"})


def test_wrong_codimension_raises(p3_manifold):
    with pytest.raises(WrongCodimension):
        extract_submanifold(p3_manifold, {"U0": ["z3"], "U1": ["z1", "z3"],
                                          "U2": "absent", "U3": "absent"})


def test_missing_chart_spec_raises(p3_manifold):
    with pytest.raises(InconsistentData):
        extract_submanifold(p3_manifold, {"U0": ["z3"]})
    with pytest.raises(InconsistentData):
        extract_submanifold(p3_manifold, {n: "absent" for n in
                                          p3_manifold.space.chart_names})


# — codimension-one packaging ------------------------------------------------

def test_line_bundle_on_affine_curve(c2):
    _, data = c2
    bundle = codim1_line_bundle(data)
    assert bundle.invariants["pass"]
    vars = data.space.chart("U").vars
    assert bundle.fields["U"] == pv_monomial(vars, (1,),
                                             LaurentPoly.const(vars, 1))


def test_line_bundle_on_hyperplane(p3_hyperplane_sub):
    bundle = codim1_line_bundle(p3_hyperplane_sub)
    inv = bundle.invariants
    assert inv["pass"]
    assert len(inv["cocycle"]) == 6
    assert all(inv["cocycle"].values())
    assert all(inv["field_closed"].values())


def test_line_bundle_rejects_higher_codimension(p3_line_sub):
    with pytest.raises(WrongCodimension):
        codim1_line_bundle(p3_line_sub)
