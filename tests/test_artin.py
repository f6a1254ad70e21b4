"""Small-parameter obstruction calculus for the three moduli functors."""

from fractions import Fraction

import pytest

from conftest import prescribed_instability
from poissondef.artin import (artin_first_order, artin_obstruction,
                              first_order_by_enumeration)
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    Obstructed, initial_state,
                                    obstruction_cocycle, run_solver,
                                    solve_order, verify_family)
from poissondef.errors import InconsistentData
from poissondef.geometry import (ABSENT, PoissonManifold, affine_space,
                                 extract_submanifold, projective_space)
from poissondef.polyvector import Polyvector, restrict
from poissondef.symbolic import LaurentPoly, TruncatedSeries


@pytest.fixture(scope="module")
def transverse_line():
    """Affine 3-space, structure w1*z on the first two frame slots, with the
    z-axis as submanifold."""
    space = affine_space(3, ("w1", "w2", "z"))
    vars = space.chart("U").vars
    lam = Polyvector.monomial(vars, (0, 1),
                              LaurentPoly.variable(vars, "w1")
                              * LaurentPoly.variable(vars, "z"))
    M = PoissonManifold.from_chart_data(space, {"U": lam})
    S = extract_submanifold(M, {"U": ["w1", "w2"]})
    return M, S


@pytest.fixture(scope="module")
def plane_curve():
    space = projective_space(2)
    vars = space.chart("U0").vars
    lam = Polyvector.monomial(vars, (0, 1), LaurentPoly.variable(vars, "z1"))
    M = PoissonManifold.from_chart_data(space, {"U0": lam})
    S = extract_submanifold(M, {"U0": ["z1"], "U1": ABSENT, "U2": ["z2"]})
    return M, S


# — first-order spaces, two independent engines ------------------------------

def test_first_order_submanifold_functor(transverse_line):
    _, S = transverse_line
    engine = artin_first_order("hilb", submanifold=S, bound=3)
    enum = first_order_by_enumeration("hilb", submanifold=S, bound=3)
    assert engine.dimension == enum["dimension"] == 4


def test_first_order_ambient_functor():
    space = affine_space(2, ("x", "y"))
    vars = space.chart("U").vars
    lam = Polyvector.monomial(vars, (0, 1), LaurentPoly.variable(vars, "x"))
    M = PoissonManifold.from_chart_data(space, {"U": lam})
    engine = artin_first_order("def", manifold=M, bound=2)
    enum = first_order_by_enumeration("def", manifold=M, amb_bound=2)
    assert engine.dimension == enum["dimension"] == 6


def test_first_order_coupled_functor(plane_curve):
    _, S = plane_curve
    engine = artin_first_order("exthilb", submanifold=S)
    enum = first_order_by_enumeration("exthilb", submanifold=S, bound=3,
                                      amb_bound=3)
    assert engine.dimension == enum["dimension"] == 8


# — liftable situation: zero class ------------------------------------------

def test_trivial_extension_lifts(transverse_line):
    M, S = transverse_line
    vars = M.space.chart("U").vars
    prob = DeformationProblem(S, ("t",), order=2, degree=3, mode="fixed",
                              bound=3)
    phi = {"U": [TruncatedSeries.zero(("t",), 2),
                 TruncatedSeries(("t",), 2,
                                 {(1,): LaurentPoly.variable(vars, "z")})]}
    lam = {"U": TruncatedSeries.const(("t",), 2, M.bivector("U"))}
    state = DeformationState(prob, 1, phi, lam)
    assert verify_family(state, 1)["pass"]
    report = artin_obstruction("hilb", state=state, bound=3, perturb=7)
    assert report.kind == "hilb"
    assert report.cls.is_zero()
    assert report.liftable
    assert all(report.certificates.values())
    assert report.invariance["identities"]
    assert report.invariance["same_verdict"]
    step = solve_order(state)
    assert not isinstance(step, Obstructed)


# — obstructed situation: nonzero class matching the solver cocycle ----------

def test_prescribed_instability_class(instability_setup=None):
    prob = prescribed_instability(0, 2)
    state = initial_state(prob)
    report = artin_obstruction("hilb", state=state, bound=4, perturb=5)
    assert not report.cls.is_zero()
    assert not report.liftable
    assert "equation row" in report.witness
    assert report.invariance["identities"]
    assert report.invariance["same_verdict"]

    S = prob.submanifold
    cocycle = obstruction_cocycle(state)
    for name in S.present_charts():
        w = S.normal[name]
        for a in range(S.codim):
            engine_G = cocycle.G[name][(1,)][a]
            assert report.cls.normal[name][a] == restrict(-engine_G, w)
    for (i, k), rows in cocycle.psi.items():
        got = rows.get((1,))
        for a in range(S.codim):
            val = report.cls.normal_cech[(i, k)][a]
            if got is None:
                assert val.is_zero()
            else:
                assert val == S.substitute_tangential(-got[a], k, i)

    res = run_solver(prob)
    assert not res.ok
    assert res.obstructed.order == 1


# — coupled functor on the worked curve --------------------------------------

def _order_one_curve_state(M, S):
    vars0 = M.space.chart("U0").vars
    vars2 = M.space.chart("U2").vars
    direction = Polyvector.monomial(vars0, (0, 1),
                                    LaurentPoly.variable(vars0, "z2"))
    phi = {"U0": [TruncatedSeries(("t",), 2,
                                  {(1,): -LaurentPoly.variable(vars0, "z2")})],
           "U2": [TruncatedSeries(("t",), 2,
                                  {(1,): -LaurentPoly.const(vars2, 1)})]}
    lam = {name: (TruncatedSeries.const(("t",), 2, M.bivector(name))
                  + TruncatedSeries(("t",), 2,
                                    {(1,): M.space.pushforward(
                                        direction, "U0", name)}))
           for name in M.space.chart_names}
    prob = DeformationProblem(S, ("t",), order=2, degree=2, mode="extended")
    return prob, DeformationState(prob, 1, phi, lam)


def test_coupled_functor_on_worked_curve(plane_curve):
    M, S = plane_curve
    prob, state = _order_one_curve_state(M, S)
    assert verify_family(state, 1)["pass"]
    report = artin_obstruction("exthilb", state=state, bound=2, perturb=3)
    assert sorted(report.certificates) == [
        "ambient-closed", "ambient-step", "ambient-triple",
        "normal-closed", "normal-step", "normal-triple"]
    assert all(report.certificates.values())
    assert report.liftable
    assert report.invariance["identities"]
    assert report.invariance["same_verdict"]

    cocycle = obstruction_cocycle(state)
    for name in S.present_charts():
        w = S.normal[name]
        rows = cocycle.G.get(name, {}).get((2,))
        for a in range(S.codim):
            val = report.cls.normal[name][a]
            if rows is None:
                assert val.is_zero()
            else:
                assert val == restrict(-rows[a], w)
    for name in M.space.chart_names:
        pi = cocycle.Pi.get(name, {}).get((2,))
        if pi is None:
            assert report.cls.ambient[name].is_zero()
        else:
            assert report.cls.ambient[name] == pi * Fraction(1, 2)
    step = solve_order(state)
    assert not isinstance(step, Obstructed)


def test_ambient_functor_on_plane(plane_curve):
    M, _ = plane_curve
    vars0 = M.space.chart("U0").vars
    direction = Polyvector.monomial(vars0, (0, 1), LaurentPoly.const(vars0, 1))
    lam = {name: (TruncatedSeries.const(("t",), 2, M.bivector(name))
                  + TruncatedSeries(("t",), 2,
                                    {(1,): M.space.pushforward(
                                        direction, "U0", name)}))
           for name in M.space.chart_names}
    report = artin_obstruction("def", manifold=M, lam=lam, order=1,
                               bound=2, amb_bound=3, perturb=2)
    assert report.kind == "def"
    assert report.cls.is_zero()
    assert report.liftable
    assert report.invariance["identities"]
    assert report.invariance["same_verdict"]


# — argument validation ------------------------------------------------------

def test_artin_argument_checks():
    with pytest.raises(InconsistentData):
        artin_obstruction("hilb")
    with pytest.raises(InconsistentData):
        artin_obstruction("nope")
    with pytest.raises(InconsistentData):
        artin_first_order("def")
