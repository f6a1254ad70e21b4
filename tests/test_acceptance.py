"""Acceptance gate: ten end-to-end criteria, each asserted exactly.

Every test re-derives its expected values from an independent route
(hand-counted section spaces, a dense linear-algebra oracle, closed-form
family data, the bracket axioms) and finishes by printing a single
``criterion N PASS`` line.  All comparisons are exact rational identities;
no tolerances appear anywhere.
"""

import json
from fractions import Fraction

from conftest import (assert_square_zero, first_order_by_enumeration,
                      oracle_dim, prescribed_instability, truncate_state)
from test_polyvector import run_bracket_property_suite

from poissondef.artin import artin_first_order, artin_obstruction
from poissondef.cli import run_command
from poissondef.complexes import characteristic_map
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    MatchFailure, Obstructed,
                                    cochain_is_zero, initial_state,
                                    match_families, obstruction_cocycle,
                                    run_solver, solve_order, verify_family)
from poissondef.geometry import (ABSENT, PoissonManifold, affine_space,
                                 extract_submanifold, projective_space)
from poissondef.polyvector import Polyvector
from poissondef.symbolic import (LaurentPoly, MajorantSeries, TruncatedSeries,
                                 dominates)

EXAMPLES = "src/poissondef/examples"


def jrun(*argv):
    code, text = run_command(list(argv) + ["--json"])
    return code, json.loads(text)


def test_criterion_01_weighted_sections_of_affine_line():
    """Normal sections of the axis in 3-space at weights 0..5: one generator
    per weight, namely (0, x3^w)."""
    code, report = jrun("h0", f"{EXAMPLES}/c3_line.pdef", "--complex",
                        "normal", "--weights", "0..5")
    assert code == 0
    assert report["dimensions"] == [1, 1, 1, 1, 1, 1]
    expected = ["1", "x3", "x3^2", "x3^3", "x3^4", "x3^5"]
    for w in range(6):
        (entry,) = report["basis"][str(w)]
        assert entry["normal"]["U"] == ["0", expected[w]]
    print("criterion 1 PASS: weighted section dimensions 1,1,1,1,1,1 with "
          "generators (0, x3^w)")


def test_criterion_02_hyperplane_family(h0_reports, hyperplane_result):
    """The hyperplane moves in a one-dimensional family z3 = t, exact to
    order four."""
    assert h0_reports["p3_hyperplane_normal"].dimension == 1
    res = hyperplane_result
    assert res.ok and res.verify["pass"] and res.verify["verified_order"] >= 4
    vars0 = res.problem.space.chart("U0").vars
    vars1 = res.problem.space.chart("U1").vars
    vars2 = res.problem.space.chart("U2").vars
    assert res.state.phi["U0"][0].terms == {(1,): LaurentPoly.const(vars0, 1)}
    assert res.state.phi["U1"][0].terms == {
        (1,): LaurentPoly.variable(vars1, "z1")}
    assert res.state.phi["U2"][0].terms == {
        (1,): LaurentPoly.variable(vars2, "z1")}
    assert res.char_map_identity
    print("criterion 2 PASS: hyperplane section space has dimension 1 and "
          "the family z3 = t verifies through order 4")


def test_criterion_03_line_family(h0_reports, line_result):
    """The line moves in a two-dimensional family; the seeded solver returns
    z1 = 0, z3 = z2 t1 + t2, exact to order four."""
    assert h0_reports["p3_line_normal"].dimension == 2
    code, report = jrun("h0", f"{EXAMPLES}/p3_line.pdef")
    assert code == 0 and report["dimension"] == 2
    normals = [entry["normal"] for entry in report["basis"]]
    assert {"U0": ["0", "1"], "U2": ["0", "z1"]} in normals
    assert {"U0": ["0", "z2"], "U2": ["0", "1"]} in normals
    res = line_result
    assert res.ok and res.verify["pass"] and res.verify["verified_order"] >= 4
    vars0 = res.problem.space.chart("U0").vars
    assert res.state.phi["U0"][0].is_zero()
    assert res.state.phi["U0"][1].terms == {
        (1, 0): LaurentPoly.variable(vars0, "z2"),
        (0, 1): LaurentPoly.const(vars0, 1)}
    print("criterion 3 PASS: line section space has dimension 2 and the "
          "seeded family z1 = 0, z3 = z2 t1 + t2 verifies through order 4")


def test_criterion_04_ruled_surface_structure_sections(h0_reports):
    """Global bivector sections on the six ruled surfaces: 9,9,9,9,10,11."""
    dims = [h0_reports[f"f{m}_bivector"].dimension for m in range(6)]
    assert dims == [9, 9, 9, 9, 10, 11]
    print("criterion 4 PASS: ruled-surface bivector section dimensions "
          "9,9,9,9,10,11")


def test_criterion_05_ruled_surface_extended_sections(h0_reports):
    """Coupled (submanifold plus structure) sections over the base section
    curve: 7,7,9,10,11 for the five stable cases."""
    dims = [h0_reports[f"f{m}_extended"].dimension for m in (0, 1, 3, 4, 5)]
    assert dims == [7, 7, 9, 10, 11]
    print("criterion 5 PASS: ruled-surface coupled section dimensions "
          "7,7,9,10,11")


def test_criterion_06_plane_curve_extended_family(descriptor_family,
                                                  p2_worked):
    """The plane conic-degeneration family: coupled section space has
    dimension 8, the two written directions lie in it, and the closed-form
    two-parameter family verifies through order three."""
    desc = descriptor_family["p2_extended"]
    from poissondef.complexes import h0_complex
    report = h0_complex(desc)
    assert report.dimension == 8
    assert p2_worked["report"]["pass"]
    assert p2_worked["report"]["verified_order"] >= 3
    coords = characteristic_map(desc, report.basis, p2_worked["family"])
    assert len(coords) == 2
    assert all(c is not None for c in coords)
    assert coords[0] != coords[1]
    assert any(x != 0 for x in coords[0])
    assert any(x != 0 for x in coords[1])
    print("criterion 6 PASS: plane-curve coupled section space has dimension "
          "8 and contains both directions of the verified order-3 family")


def test_criterion_07_ruled_surface_counterexamples(instability_runs):
    """Both counterexample surfaces obstruct at order one, at every degree
    bound 1..6, with an explicit infeasible-equation witness."""
    degrees = {0: set(), 2: set()}
    for (m, bound), obstructed in sorted(instability_runs.items()):
        assert obstructed.order == 1
        assert "equation row" in obstructed.witness
        assert not obstructed.cocycle.is_zero()
        assert set(obstructed.tested_degrees.values()) == {"infeasible"}
        degrees[m] |= set(obstructed.tested_degrees)
    assert degrees[0] == degrees[2] == {1, 2, 3, 4, 5, 6}
    print("criterion 7 PASS: both counterexample surfaces obstruct at order "
          "1 for every degree bound 1..6")


def test_criterion_08_internal_consistency(descriptor_family, h0_reports,
                                           hyperplane_result, line_result,
                                           p2_worked):
    """Cross-checks: bracket axioms, square-zero differentials, certified
    obstruction cochains, independent rank oracle, comparison-series law."""
    assert run_bracket_property_suite(200) == 200

    for name, desc in sorted(descriptor_family.items()):
        assert_square_zero(desc, 0, 6)

    for res in (hyperplane_result, line_result):
        for k in range(1, res.problem.order):
            partial = truncate_state(res.state, k)
            cocycle = obstruction_cocycle(partial)
            assert cocycle.is_zero()
            assert all(cocycle.certificates.values())
    for k in (1, 2):
        partial = truncate_state(p2_worked["family"], k)
        cocycle = obstruction_cocycle(partial)
        assert cocycle.is_zero()
        assert all(cocycle.certificates.values())
    for m in (0, 2):
        state = initial_state(prescribed_instability(m, 2))
        cocycle = obstruction_cocycle(state)
        assert not cocycle.is_zero()
        assert all(cocycle.certificates.values())

    for name, desc in sorted(descriptor_family.items()):
        assert h0_reports[name].dimension == oracle_dim(desc), name

    a, b = Fraction(5), Fraction(7)
    major = MajorantSeries(a, b, 1)
    series = major.as_series(("t",), 12)
    for v in (2, 3, 4):
        power = series
        for _ in range(v - 1):
            power = power * series
        assert dominates(power, major, (a / b) ** (v - 1))
    print("criterion 8 PASS: bracket axioms (200 cases), square-zero "
          "differentials, certified cochains, rank oracle agreement, and "
          "the comparison-series power law all hold exactly")


def test_criterion_09_small_parameter_obstruction_calculus():
    """Obstruction classes over small parameter rings: two engines agree on
    first-order dimensions, verdicts are perturbation-invariant, and
    liftability matches the order-by-order solver in both directions."""
    space3 = affine_space(3, ("w1", "w2", "z"))
    v3 = space3.chart("U").vars
    lam3 = Polyvector.monomial(v3, (0, 1), LaurentPoly.variable(v3, "w1")
                               * LaurentPoly.variable(v3, "z"))
    man3 = PoissonManifold.from_chart_data(space3, {"U": lam3})
    sub3 = extract_submanifold(man3, {"U": ["w1", "w2"]})
    assert artin_first_order("hilb", submanifold=sub3, bound=3).dimension \
        == first_order_by_enumeration("hilb", submanifold=sub3,
                                      bound=3)["dimension"] == 4

    space2 = affine_space(2, ("x", "y"))
    v2 = space2.chart("U").vars
    lam2 = Polyvector.monomial(v2, (0, 1), LaurentPoly.variable(v2, "x"))
    man2 = PoissonManifold.from_chart_data(space2, {"U": lam2})
    assert artin_first_order("def", manifold=man2, bound=2).dimension \
        == first_order_by_enumeration("def", manifold=man2,
                                      amb_bound=2)["dimension"] == 6

    p2 = projective_space(2)
    vp = p2.chart("U0").vars
    lamp = Polyvector.monomial(vp, (0, 1), LaurentPoly.variable(vp, "z1"))
    manp = PoissonManifold.from_chart_data(p2, {"U0": lamp})
    subp = extract_submanifold(manp, {"U0": ["z1"], "U1": ABSENT,
                                      "U2": ["z2"]})
    assert artin_first_order("exthilb", submanifold=subp).dimension \
        == first_order_by_enumeration("exthilb", submanifold=subp, bound=3,
                                      amb_bound=3)["dimension"] == 8

    prob = DeformationProblem(sub3, ("t",), order=2, degree=3, mode="fixed",
                              bound=3)
    phi = {"U": [TruncatedSeries.zero(("t",), 2),
                 TruncatedSeries(("t",), 2,
                                 {(1,): LaurentPoly.variable(v3, "z")})]}
    lam = {"U": TruncatedSeries.const(("t",), 2, man3.bivector("U"))}
    state = DeformationState(prob, 1, phi, lam)
    lift = artin_obstruction("hilb", state=state, bound=3, perturb=7)
    assert lift.cls.is_zero() and lift.liftable
    assert lift.invariance["identities"] and lift.invariance["same_verdict"]
    assert not isinstance(solve_order(state), Obstructed)

    obs_state = initial_state(prescribed_instability(0, 2))
    blocked = artin_obstruction("hilb", state=obs_state, bound=4, perturb=5)
    assert not blocked.cls.is_zero() and not blocked.liftable
    assert blocked.invariance["identities"]
    assert blocked.invariance["same_verdict"]
    res = run_solver(prescribed_instability(0, 2))
    assert not res.ok and res.obstructed.order == 1
    print("criterion 9 PASS: first-order dimensions 4/6/8 agree across "
          "engines, verdicts are perturbation-invariant, and liftability "
          "matches the order-by-order solver")


def test_criterion_10_family_matching(p3_manifold, p3_hyperplane_sub,
                                      p3_line_sub, hyperplane_result):
    """Matching recovers the substitution t = s and t = s + s^2 exactly, and
    rejects a non-closed observed family with a nonzero residual."""
    prob = hyperplane_result.problem
    state = hyperplane_result.state

    def observed(params, order, phi):
        lam = {name: TruncatedSeries.const(params, order,
                                           p3_manifold.bivector(name))
               for name in p3_manifold.space.chart_names}
        shadow = DeformationProblem(prob.submanifold, params, order=order,
                                    degree=prob.degree, mode=prob.mode)
        return DeformationState(shadow, order, phi, lam)

    phi_same = {name: [TruncatedSeries(
        ("s",), 4, {(1,): state.phi[name][0].coefficient((1,))})]
        for name in p3_hyperplane_sub.present_charts()}
    h, report = match_families(prob, state, observed(("s",), 4, phi_same),
                               order=4)
    assert report["pass"]
    assert h[0].terms == {(1,): Fraction(1)}

    phi_re = {}
    for name in p3_hyperplane_sub.present_charts():
        base = state.phi[name][0].coefficient((1,))
        phi_re[name] = [TruncatedSeries(("s",), 4, {(1,): base, (2,): base})]
    h, report = match_families(prob, state, observed(("s",), 4, phi_re),
                               order=4)
    assert report["pass"]
    assert h[0].terms == {(1,): Fraction(1), (2,): Fraction(1)}

    line_prob = DeformationProblem(p3_line_sub, ("t",), order=2, degree=2,
                                   mode="fixed", seed=(0,))
    line_res = run_solver(line_prob)
    assert line_res.ok
    vars0 = p3_manifold.space.chart("U0").vars
    vars2 = p3_manifold.space.chart("U2").vars
    bad_phi = {"U0": [TruncatedSeries(("s",), 2,
                                      {(1,): LaurentPoly.const(vars0, 1)}),
                      TruncatedSeries.zero(("s",), 2)],
               "U2": [TruncatedSeries(("s",), 2,
                                      {(1,): LaurentPoly.variable(vars2,
                                                                  "z1")}),
                      TruncatedSeries.zero(("s",), 2)]}
    shadow = DeformationProblem(p3_line_sub, ("s",), order=2,
                                degree=2, mode="fixed")
    bad_lam = {name: TruncatedSeries.const(("s",), 2,
                                           p3_manifold.bivector(name))
               for name in p3_manifold.space.chart_names}
    bad = DeformationState(shadow, 2, bad_phi, bad_lam)
    try:
        match_families(line_prob, line_res.state, bad, order=2)
    except MatchFailure as failure:
        assert failure.reason == "not-closed"
        assert not cochain_is_zero(failure.residual)
    else:
        raise AssertionError("incompatible family was matched")
    print("criterion 10 PASS: matching recovers t = s and t = s + s^2 "
          "exactly and rejects a non-closed family with nonzero residual")
