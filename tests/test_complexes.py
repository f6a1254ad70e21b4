"""Controlling complexes: differentials, section spaces, and both engines."""

from fractions import Fraction

import pytest

from conftest import (assert_square_zero, monomial_probes, oracle_dim,
                      pv_monomial)
from poissondef.complexes import (CohomologyReport, _padded, affine_hyper,
                                  atlas_hyper_truncated, atom_cochain,
                                  build_complex, characteristic_map,
                                  cochain_is_zero, cochain_lincomb,
                                  cochain_vector_entries,
                                  coordinates, global_sections,
                                  gluing_failure, h0_complex, monomial_atoms,
                                  semiregularity_image_rank,
                                  total_closedness, total_coboundary,
                                  transport_nor_tuple)
from poissondef.deformation import DeformationState
from poissondef.errors import (ClosednessViolation, InconsistentData,
                               NotInKernel, UnstableAnsatz)
from poissondef.geometry import codim1_line_bundle
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly, TruncatedSeries


# — differential squares to zero --------------------------------------------

def test_square_zero_probe_battery(descriptor_family):
    for name, desc in sorted(descriptor_family.items()):
        assert_square_zero(desc, 0, 6)


# the names of `square_zero_family`
SQUARE_ZERO_SET = (
    "c3_normal", "p3_hyperplane_normal", "p3_line_normal", "p2_extended",
    *(f"f{m}_bivector" for m in range(6)),
    *(f"f{m}_extended" for m in (0, 1, 3, 4, 5)),
    "p3_hyperplane_extended", "p3_line_extended", "c3_line_extended")

# d∘d ≠ 0 at p = 1 on these: the sign defect of ROADMAP item 1
P1_DEFECT = pytest.mark.xfail(
    strict=True, raises=InconsistentData,
    reason="ROADMAP item 1: d∘d ≠ 0 at p = 1 on the C3 line and the P3 "
           "hyperplane")
P1_FAILS = ("c3_normal", "c3_line_extended", "p3_hyperplane_normal",
            "p3_hyperplane_extended")


@pytest.mark.parametrize("name", SQUARE_ZERO_SET)
def test_square_zero_at_p2(square_zero_family, name):
    assert sorted(square_zero_family) == sorted(SQUARE_ZERO_SET)
    assert_square_zero(square_zero_family[name], 2, 3)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=P1_DEFECT) if name in P1_FAILS else name
    for name in SQUARE_ZERO_SET])
def test_square_zero_at_p1(square_zero_family, name):
    assert_square_zero(square_zero_family[name], 1, 3)


def test_extended_coupling_has_the_graded_sign(p3_hyperplane_sub,
                                               p3_line_sub):
    """The extended differential couples the ambient part into the normal
    part with the factor (-1)^p; with one sign in every degree, d∘d is not
    zero on these complexes."""
    for S in (p3_hyperplane_sub, p3_line_sub):
        desc = build_complex("extended", submanifold=S)
        assert_square_zero(desc, 0, 3)


def test_differential_couples_into_a_chart_the_normal_part_leaves_out(
        p3_hyperplane_sub):
    """An extended cochain whose normal part holds U0 only, and whose
    ambient part holds one atom on U1, has the differential of the cochain
    padded with zeros on every chart: the coupling starts U1 from zero."""
    desc = build_complex("extended", submanifold=p3_hyperplane_sub)
    atoms = monomial_atoms(desc, "amb", 0, ["U1"], 2)
    assert len(atoms) == 30
    for atom in atoms:
        cochain = atom_cochain(desc, 0, atom)
        cochain["nor"] = {"U0": desc.zero_chunk("nor", "U0", 0)}
        got = desc.differential(cochain, 0)["nor"]
        want = desc.differential(_padded(desc, 0, atom), 0)["nor"]
        assert set(got) == {"U0", "U1"}
        for name in desc.part_charts("nor"):
            assert got.get(name, desc.zero_chunk("nor", name, 1)) == \
                want[name]


def test_total_coboundary_is_closed(descriptor_family):
    """The total coboundary of any degree-zero cochain passes every
    closedness identity; breaking its chart part on one chart breaks them."""
    desc = descriptor_family["p2_extended"]
    probes = list(monomial_probes(desc, 0, 2))
    for probe in probes:
        chart, overlap = total_coboundary(desc, probe)
        certs = total_closedness(desc, chart, overlap)
        assert sorted(certs) == [
            "ambient-closed", "ambient-step", "ambient-triple",
            "normal-closed", "normal-step", "normal-triple"]
        assert all(certs.values())
    name = desc.submanifold.present_charts()[0]
    chart, overlap = total_coboundary(desc, probes[0])
    vars = desc.space.chart(name).vars
    chart["nor"][name] = [pv + pv_monomial(
        vars, (0,), LaurentPoly.const(vars, 1)) for pv in chart["nor"][name]]
    with pytest.raises(ClosednessViolation, match="normal-step"):
        total_closedness(desc, chart, overlap)


def test_build_complex_argument_checks(c3, p3_hyperplane_sub):
    with pytest.raises(InconsistentData):
        build_complex("mystery")
    with pytest.raises(InconsistentData):
        build_complex("normal")
    with pytest.raises(InconsistentData):
        build_complex("linebundle",
                      linebundle=codim1_line_bundle(p3_hyperplane_sub))


# — cochain arithmetic -------------------------------------------------------

def test_cochain_arithmetic(h0_reports):
    basis = h0_reports["p3_line_normal"].basis
    assert len(basis) == 2
    a, b = basis
    combo = cochain_lincomb([Fraction(2), Fraction(-1)], [a, b])
    assert cochain_is_zero(cochain_lincomb(
        [Fraction(1), Fraction(-2), Fraction(1)], [combo, a, b]))
    ea, eb, ecombo = (dict(cochain_vector_entries(c)) for c in (a, b, combo))
    for key in set(ea) | set(eb) | set(ecombo):
        assert ecombo.get(key, 0) == 2 * ea.get(key, 0) - eb.get(key, 0)


# — affine graded engine -----------------------------------------------------

def test_affine_engine_on_transverse_line(descriptor_family):
    desc = descriptor_family["c3_normal"]
    rep = affine_hyper(desc, range(6), degrees=(0, 1))
    assert rep.engine == "affine-graded"
    assert not rep.truncated
    assert rep.weights["H0"] == {w: 1 for w in range(6)}
    assert rep.weights["H1"] == {w: 2 for w in range(6)}
    assert rep.dimension == 6
    vars = desc.space.chart("U").vars
    for w in range(6):
        (cochain,) = rep.basis[w]
        first, second = cochain["nor"]["U"]
        assert first.is_zero()
        assert second == Polyvector.from_function(
            LaurentPoly(vars, {(0, 0, w): 1}))


def test_affine_engine_rejects_atlases(descriptor_family):
    with pytest.raises(InconsistentData):
        affine_hyper(descriptor_family["p3_hyperplane_normal"], [0])


def test_scalar_slot_engine_on_affine_curve(c2):
    bundle = codim1_line_bundle(c2[1])
    desc = build_complex("linebundle", linebundle=bundle)
    rep = affine_hyper(desc, range(4), degrees=(0, 1))
    assert rep.weights["H0"] == {0: 0, 1: 1, 2: 0, 3: 0}
    assert rep.weights["H1"] == {0: 1, 1: 0, 2: 0, 3: 0}
    nor = build_complex("normal", submanifold=c2[1])
    assert semiregularity_image_rank(desc, nor, 1) == 0


# — atlas engine -------------------------------------------------------------

def test_atlas_engine_dimensions(h0_reports):
    expected = {
        "c3_normal": 4,          # bounded window of the graded answer
        "p3_hyperplane_normal": 1,
        "p3_line_normal": 2,
        "p2_extended": 8,
        "f0_bivector": 9, "f1_bivector": 9, "f2_bivector": 9,
        "f3_bivector": 9, "f4_bivector": 10, "f5_bivector": 11,
        "f0_extended": 7, "f1_extended": 7,
        "f3_extended": 9, "f4_extended": 10, "f5_extended": 11,
    }
    got = {name: rep.dimension for name, rep in h0_reports.items()}
    assert got == expected
    for rep in h0_reports.values():
        assert rep.stable
        assert rep.engine == "atlas"


def test_atlas_engine_matches_elimination_oracle(descriptor_family, h0_reports):
    for name, desc in sorted(descriptor_family.items()):
        rep = h0_reports[name]
        assert oracle_dim(desc, rep.degree_bound) == rep.dimension, name


def test_kernel_elements_are_closed(descriptor_family, h0_reports):
    for name in ("p3_hyperplane_normal", "p2_extended", "f4_bivector"):
        desc = descriptor_family[name]
        for cochain in h0_reports[name].basis:
            assert cochain_is_zero(desc.differential(cochain, 0))


def test_section_space_coordinates(descriptor_family):
    desc = descriptor_family["c3_normal"]
    space = global_sections(desc)
    e0 = coordinates(space.basis, space.basis[0])[0]
    assert e0 is not None
    assert e0[0] == 1 and all(x == 0 for x in e0[1:])
    vars = desc.space.chart("U").vars
    high = LaurentPoly(vars, {(0, 0, space.degree_bound + 1): 1})
    outside = {"nor": {"U": (Polyvector.from_function(high),
                             Polyvector.zero(vars, 0))}}
    assert coordinates(space.basis, outside)[0] is None
    # the violated row is the monomial no basis element reaches, reported
    # by its position among the sorted coordinate keys
    sol, bad = coordinates(space.basis, outside)
    keys = sorted(set().union(*(dict(cochain_vector_entries(c))
                                for c in space.basis + [outside])))
    assert sol is None
    assert keys[bad] == ("nor", "U", 0, (), (0, 0, space.degree_bound + 1))


def _gluing_failure(desc, cochain):
    return gluing_failure(total_coboundary(desc, cochain)[1])


def test_gluing_failure_names_part_and_overlap(descriptor_family, h0_reports):
    desc = descriptor_family["p3_hyperplane_normal"]
    basis = h0_reports["p3_hyperplane_normal"].basis
    assert all(_gluing_failure(desc, c) is None for c in basis)
    broken = cochain_lincomb([Fraction(1)], [basis[0]])
    broken["nor"]["U1"] = [Polyvector.zero(desc.space.chart("U1").vars, 0)]
    part, k, i = _gluing_failure(desc, broken)
    assert part == "nor" and "U1" in (k, i)

    desc = descriptor_family["p2_extended"]
    basis = h0_reports["p2_extended"].basis
    assert all(_gluing_failure(desc, c) is None for c in basis)
    section = next(c for c in basis
                   if any(not pv.is_zero() for pv in c["amb"].values()))
    chart = next(n for n, pv in section["amb"].items() if not pv.is_zero())
    broken = cochain_lincomb([Fraction(1)], [section])
    broken["amb"][chart] = section["amb"][chart] * 2
    part, k, i = _gluing_failure(desc, broken)
    assert part == "amb" and chart in (k, i)


def test_unstable_ansatz_raises(descriptor_family):
    with pytest.raises(UnstableAnsatz):
        global_sections(descriptor_family["p3_hyperplane_normal"], bound=0,
                        max_bound=1)


def test_truncated_atlas_estimate(descriptor_family):
    rep = atlas_hyper_truncated(descriptor_family["p3_hyperplane_normal"], 4)
    assert isinstance(rep, CohomologyReport)
    assert rep.engine == "atlas-truncated"
    assert rep.truncated
    assert rep.dimension == 68
    assert any("not exact" in note for note in rep.notes)


# — normal-tuple transport ---------------------------------------------------

def test_normal_tuple_transport_round_trip(p3_line_sub):
    S = p3_line_sub
    vars = S.space.chart("U0").vars
    tup = (Polyvector.from_function(LaurentPoly.variable(vars, "z2")),
           Polyvector.from_function(LaurentPoly.const(vars, 3)))
    moved = transport_nor_tuple(S, tup, "U0", "U2")
    back = transport_nor_tuple(S, moved, "U2", "U0")
    for a, b in zip(back, tup):
        assert (a - b).is_zero()


# — characteristic map -------------------------------------------------------

def test_characteristic_map_identifies_direction(descriptor_family,
                                                 h0_reports,
                                                 hyperplane_result):
    desc = descriptor_family["p3_hyperplane_normal"]
    basis = h0_reports["p3_hyperplane_normal"].basis
    coords = characteristic_map(desc, basis, hyperplane_result.state)
    assert coords == [[Fraction(1)]]


def test_characteristic_map_rejects_non_gluing(descriptor_family,
                                               h0_reports,
                                               hyperplane_result):
    desc = descriptor_family["p3_hyperplane_normal"]
    basis = h0_reports["p3_hyperplane_normal"].basis
    state = hyperplane_result.state
    broken_phi = dict(state.phi)
    zero_row = TruncatedSeries(
        ("t",), state.order,
        {(1,): LaurentPoly.zero(desc.space.chart("U1").vars)})
    broken_phi["U1"] = [zero_row]
    broken = DeformationState(state.problem, state.order, broken_phi, state.lam)
    with pytest.raises(NotInKernel):
        characteristic_map(desc, basis, broken)
