"""Order-by-order solver, family verification, obstructions, and matching."""

from fractions import Fraction
from pathlib import Path

import pytest

import poissondef
from conftest import (build_fm_section, prescribed_instability, pv_monomial,
                      truncate_state)
from poissondef import deformation
from poissondef.cli import run_command
from poissondef.complexes import (build_complex, cochain_is_zero, h0_complex,
                                  transport_nor_tuple)
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    initial_state, match_families,
                                    obstruction_cocycle, run_solver,
                                    solve_order, verify_family)
from poissondef.dsl import parse
from poissondef.errors import DegreeBoundTooSmall, MatchFailure
from poissondef.geometry import (PoissonManifold, affine_space,
                                 extract_submanifold)
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly, TruncatedSeries


# — exact solutions ----------------------------------------------------------

def test_hyperplane_solution_exact(p3_manifold, hyperplane_result):
    res = hyperplane_result
    vars0 = p3_manifold.space.chart("U0").vars
    one = LaurentPoly.const(vars0, 1)
    assert res.state.order == 4
    assert res.state.phi["U0"][0].terms == {(1,): one}
    assert res.state.phi["U1"][0].terms == {
        (1,): LaurentPoly.variable(vars0, "z1")}
    assert res.state.phi["U2"][0].terms == {
        (1,): LaurentPoly.variable(vars0, "z1")}
    assert res.verify["pass"]
    assert res.verify["verified_order"] >= 4
    assert res.char_map_identity
    for name in p3_manifold.space.chart_names:
        ser = res.state.lam[name]
        assert ser.order_zero() == p3_manifold.bivector(name)
        assert all(sum(te) == 0 for te in ser.terms)


def test_hyperplane_root_chart_degree_zero_suffices(p3_hyperplane_sub,
                                                    p3_manifold):
    prob = DeformationProblem(p3_hyperplane_sub, ("t",), order=2, degree=0,
                              mode="fixed")
    res = run_solver(prob)
    assert res.ok
    vars0 = p3_manifold.space.chart("U0").vars
    assert res.state.phi["U1"][0].terms == {
        (1,): LaurentPoly.variable(vars0, "z1")}


def test_line_solution_exact(p3_manifold, line_result):
    res = line_result
    vars0 = p3_manifold.space.chart("U0").vars
    assert res.state.phi["U0"][0].is_zero()
    assert res.state.phi["U0"][1].terms == {
        (1, 0): LaurentPoly.variable(vars0, "z2"),
        (0, 1): LaurentPoly.const(vars0, 1)}
    assert res.verify["pass"]
    assert res.char_map_identity
    assert res.h0.dimension == 2


def test_worked_family_verifies(p2_worked):
    report = p2_worked["report"]
    assert report["pass"]
    assert report["order"] == 3
    assert report["verified_order"] >= 3
    assert all(v >= 3 for v in report["gluing"].values())
    assert all(v >= 3 for v in report["ideal"].values())
    assert all(v >= 3 for v in report["lambda_gluing"].values())
    assert all(v >= 3 for v in report["jacobi"].values())


def test_solver_reproduces_worked_family(p2_manifold, p2_curve_sub, p2_worked):
    space = p2_manifold.space
    S = p2_curve_sub
    fam = p2_worked["family"]
    dir1, dir2 = p2_worked["directions"]
    vars0 = space.chart("U0").vars
    nor_first = [Polyvector.from_function(-LaurentPoly.variable(vars0, "z2"))]
    nor_second = [Polyvector.from_function(-LaurentPoly.const(vars0, 1))]
    dirs = []
    for amb, nor in ((dir1, nor_first), (dir2, nor_second)):
        cochain = {"amb": {name: space.pushforward(amb, "U0", name)
                           for name in space.chart_names},
                   "nor": {"U0": nor,
                           "U2": transport_nor_tuple(S, nor, "U0", "U2")}}
        dirs.append(cochain)
    prob = DeformationProblem(S, ("t1", "t2"), order=3, degree=2,
                              mode="extended", directions=dirs)
    res = run_solver(prob)
    assert res.ok and res.verify["pass"] and res.char_map_identity
    for name in S.present_charts():
        assert (res.state.phi[name][0] - fam.phi[name][0]).is_zero()
    for name in space.chart_names:
        assert (res.state.lam[name] - fam.lam[name]).is_zero()


def test_ruled_surface_extended_family_is_linear():
    _, S = build_fm_section(3, structured=False)
    desc = build_complex("extended", submanifold=S)
    dim = h0_complex(desc).dimension
    assert dim == 9
    prob = DeformationProblem(S, tuple(f"t{i}" for i in range(dim)),
                              order=2, degree=2, mode="extended")
    res = run_solver(prob)
    assert res.ok and res.verify["pass"] and res.char_map_identity
    assert all(s.is_zero() for rows in res.state.phi.values() for s in rows)
    for name in S.space.chart_names:
        assert all(sum(te) <= 1 for te in res.state.lam[name].terms)


# — extended order steps on the hyperplane ------------------------------------

@pytest.mark.parametrize("seed", [(1, 11), (11, 15), (11, 18), (11, 21),
                                  (11, 22)])
def test_extended_hyperplane_seed_pairs_reach_order_two(p3_hyperplane_sub,
                                                        seed):
    """Two-parameter extended families whose order-two cocycle has an ambient
    part. Its certificate must couple that part into the normal one with the
    graded sign of the total complex; with one sign in every degree these
    cocycles were rejected as not closed."""
    prob = DeformationProblem(p3_hyperplane_sub, ("t1", "t2"), order=2,
                              degree=2, mode="extended", seed=seed)
    res = run_solver(prob)
    assert res.ok and res.state.order == 2
    assert res.verify["pass"] and res.char_map_identity


def test_extended_order_step_moves_the_ambient_structure(p3_hyperplane_sub):
    """The order-two step of this family needs a bivector correction, so it
    exercises the ambient columns of the step matrix and the sections
    `run_solver` passes to them."""
    prob = DeformationProblem(p3_hyperplane_sub, ("t1", "t2"), order=2,
                              degree=2, mode="extended", seed=(0, 14))
    res = run_solver(prob)
    assert res.ok and res.verify["pass"]
    assert any(sum(te) == 2 and not pv.is_zero()
               for ser in res.state.lam.values()
               for te, pv in ser.terms.items())


# — truncation soundness -----------------------------------------------------

def test_partial_families_verify_and_certify(hyperplane_result, line_result):
    for res in (hyperplane_result, line_result):
        prob = res.problem
        for k in range(1, prob.order):
            partial = truncate_state(res.state, k)
            assert verify_family(partial, k)["pass"]
            cocycle = obstruction_cocycle(partial)
            assert cocycle.is_zero()
            assert all(cocycle.certificates.values())


# — obstructed problems ------------------------------------------------------

def test_instability_surfaces_obstruct_at_order_one(instability_runs):
    for (m, D), obstructed in sorted(instability_runs.items()):
        assert obstructed.order == 1, (m, D)
        assert obstructed.tested_degrees == {
            D: "infeasible", D + 1: "infeasible", D + 2: "infeasible"}
        assert not obstructed.cocycle.is_zero()
        assert "equation row" in obstructed.witness


def test_instability_degree_sweep_covers_one_to_six(instability_runs):
    for m in (0, 2):
        covered = set()
        for D in (1, 4):
            covered |= set(instability_runs[(m, D)].tested_degrees)
        assert covered == {1, 2, 3, 4, 5, 6}


def test_instability_cocycle_certified():
    for m in (0, 2):
        prob = prescribed_instability(m, 2)
        state = initial_state(prob)
        cocycle = obstruction_cocycle(state)
        assert not cocycle.is_zero()
        assert all(cocycle.certificates.values())


# — degree-bound escalation --------------------------------------------------

def _steep_prescribed_problem(degree):
    """Single-chart problem whose first-order correction needs a degree-one
    coefficient on the root chart."""
    space = affine_space(3)
    vars = space.chart("U").vars
    lam0 = pv_monomial(vars, (0, 1),
                       LaurentPoly(vars, {(1, 0, 1): Fraction(1)}))
    M = PoissonManifold(space, {"U": lam0})
    S = extract_submanifold(M, {"U": ["x1", "x2"]})
    bump = pv_monomial(vars, (0, 1),
                       LaurentPoly(vars, {(0, 0, 2): Fraction(1)}))
    pres = {"U": TruncatedSeries.const(("t",), 2, lam0)
            + TruncatedSeries(("t",), 2, {(1,): bump})}
    return DeformationProblem(S, ("t",), order=2, degree=degree,
                              mode="prescribed", prescribed=pres)


def test_degree_bound_escalation_raises():
    with pytest.raises(DegreeBoundTooSmall) as err:
        run_solver(_steep_prescribed_problem(0))
    msg = str(err.value)
    assert "infeasible at degree 0" in msg
    assert "feasible" in msg


def test_degree_bound_escalation_resolves_at_higher_bound():
    res = run_solver(_steep_prescribed_problem(2))
    assert res.ok and res.verify["pass"]
    vars = res.problem.space.chart("U").vars
    assert res.state.phi["U"][0].terms == {
        (1,): -LaurentPoly.variable(vars, "x3")}
    assert res.state.phi["U"][1].is_zero()


# — family matching ----------------------------------------------------------

def _observed(problem, params, order, phi, lam):
    shadow = DeformationProblem(problem.submanifold, params, order=order,
                                degree=problem.degree, mode=problem.mode)
    return DeformationState(shadow, order, phi, lam)


def _const_lam(manifold, params, order):
    return {name: TruncatedSeries.const(params, order, manifold.bivector(name))
            for name in manifold.space.chart_names}


def test_match_identical_family(p3_manifold, p3_hyperplane_sub,
                                hyperplane_result):
    prob = hyperplane_result.problem
    state = hyperplane_result.state
    phi = {name: [TruncatedSeries(("s",), 4,
                                  {(1,): state.phi[name][0].coefficient((1,))})]
           for name in p3_hyperplane_sub.present_charts()}
    obs = _observed(prob, ("s",), 4, phi, _const_lam(p3_manifold, ("s",), 4))
    h, report = match_families(prob, state, obs, order=4)
    assert report["pass"]
    assert len(h) == 1
    assert h[0].terms == {(1,): Fraction(1)}


def test_match_reparametrised_family(p3_manifold, p3_hyperplane_sub,
                                     hyperplane_result):
    prob = hyperplane_result.problem
    state = hyperplane_result.state
    phi = {}
    for name in p3_hyperplane_sub.present_charts():
        base = state.phi[name][0].coefficient((1,))
        phi[name] = [TruncatedSeries(("s",), 4, {(1,): base, (2,): base})]
    obs = _observed(prob, ("s",), 4, phi, _const_lam(p3_manifold, ("s",), 4))
    h, report = match_families(prob, state, obs, order=4)
    assert report["pass"]
    assert h[0].terms == {(1,): Fraction(1), (2,): Fraction(1)}


def test_match_rejects_incompatible_family(p3_manifold, p3_line_sub):
    prob = DeformationProblem(p3_line_sub, ("t",), order=2, degree=2,
                              mode="fixed", seed=(0,))
    res = run_solver(prob)
    assert res.ok
    vars0 = p3_manifold.space.chart("U0").vars
    vars2 = p3_manifold.space.chart("U2").vars
    phi = {"U0": [TruncatedSeries(("s",), 2, {(1,): LaurentPoly.const(vars0, 1)}),
                  TruncatedSeries.zero(("s",), 2)],
           "U2": [TruncatedSeries(("s",), 2,
                                  {(1,): LaurentPoly.variable(vars2, "z1")}),
                  TruncatedSeries.zero(("s",), 2)]}
    obs = _observed(prob, ("s",), 2, phi, _const_lam(p3_manifold, ("s",), 2))
    with pytest.raises(MatchFailure) as err:
        match_families(prob, res.state, obs, order=2)
    assert err.value.reason == "not-closed"
    assert err.value.residual is not None
    assert not cochain_is_zero(err.value.residual)


def test_match_rejects_direction_outside_span(p3_manifold, p3_line_sub):
    prob = DeformationProblem(p3_line_sub, ("t",), order=2, degree=2,
                              mode="fixed", seed=(0,))
    res = run_solver(prob)
    vars0 = p3_manifold.space.chart("U0").vars
    vars2 = p3_manifold.space.chart("U2").vars
    phi = {"U0": [TruncatedSeries.zero(("s",), 2),
                  TruncatedSeries(("s",), 2,
                                  {(1,): LaurentPoly.variable(vars0, "z2")})],
           "U2": [TruncatedSeries.zero(("s",), 2),
                  TruncatedSeries(("s",), 2, {(1,): LaurentPoly.const(vars2, 1)})]}
    obs = _observed(prob, ("s",), 2, phi, _const_lam(p3_manifold, ("s",), 2))
    with pytest.raises(MatchFailure) as err:
        match_families(prob, res.state, obs, order=2)
    assert err.value.reason == "outside-span"
    assert not cochain_is_zero(err.value.residual)


# — negative verification ----------------------------------------------------

def test_verify_family_detects_broken_gluing(hyperplane_result):
    prob = hyperplane_result.problem
    state = hyperplane_result.state
    vars0 = prob.space.chart("U0").vars
    phi = dict(state.phi)
    phi["U0"] = [TruncatedSeries(("t",), 4,
                                 {(1,): LaurentPoly.const(vars0, 2)})]
    bad = DeformationState(prob, 4, phi, state.lam)
    report = verify_family(bad, 4)
    assert not report["pass"]
    assert min(report["gluing"].values()) == 0


def test_order_step_cancels_a_normal_gluing_failure(hyperplane_result):
    # z3 -> z3 + t^2 z1 on U0 alone: the order-2 cocycle has psi != 0 on the
    # overlaps of U0 in both directions, and -t^2 z1 on U0 cancels it
    prob = hyperplane_result.problem
    cut = truncate_state(hyperplane_result.state, 1)
    vars0 = prob.space.chart("U0").vars
    phi = dict(cut.phi)
    phi["U0"] = [cut.phi["U0"][0] + TruncatedSeries(
        ("t",), prob.order, {(2,): LaurentPoly.variable(vars0, "z1")})]
    state = DeformationState(prob, 1, phi, cut.lam)
    _, overlap = obstruction_cocycle(state).totals[(2,)]
    for pair in (("U0", "U1"), ("U1", "U0")):
        assert any(not pv.is_zero() for pv in overlap["nor"][pair])
    step = solve_order(state)
    assert isinstance(step, DeformationState) and step.order == 2
    assert verify_family(step, 2)["pass"]
    for name, rows in step.phi.items():
        assert all((s - c).is_zero() for s, c in zip(rows, cut.phi[name]))


# — residuals: once per distinct family ---------------------------------------

EXAMPLES = Path(poissondef.__file__).parent / "examples"

# The `solve` commands of the `solver` benchmark workload: file, seed, order.
SOLVER_RUNS = [("p3_hyperplane", None, 40), ("p3_hyperplane_s2", None, 24),
               ("p3_line", None, 40), ("p2_extended", (0, 1), 24),
               ("p2_extended_t", (0,), 20)]

# Extended hyperplane families whose order-two step makes a non-zero
# correction; every later step adds nothing.
CORRECTED_SEEDS = [(0, 14), (1, 11)]


def _file_problem(name, seed, order):
    doc = parse((EXAMPLES / f"{name}.pdef").read_text())
    return doc.problem(order=order, seed=seed)


def _extended_hyperplane(sub, seed, order):
    return DeformationProblem(sub, ("t1", "t2"), order=order, degree=2,
                              mode="extended", seed=seed)


def _structure(x):
    """Residuals as nested lists and tuples, every dict as its (key, value)
    pairs in insertion order, down to the exact coefficients."""
    if isinstance(x, dict):
        return [(k, _structure(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [_structure(v) for v in x]
    if isinstance(x, TruncatedSeries):
        return (x.params, x.cutoff, _structure(x.terms))
    if isinstance(x, Polyvector):
        return (x.vars, x.degree, _structure(x.terms))
    if isinstance(x, LaurentPoly):
        return (x.vars, _structure(x.terms))
    return x


def _fresh(state):
    """A state with copies of the series of `state`, computing its
    residuals from nothing."""
    return DeformationState(state.problem, state.order, dict(state.phi),
                            dict(state.lam))


def _solve_checking_states(monkeypatch, prob, check):
    """Run the solver with `check(state, new)` called on every state it
    makes from another, by an order step or by a skip to a later order
    (`DeformationState.next_order`). Returns the solver result and, per
    state made, (its source's order, its order, whether it took over the
    source's residuals and vanishing orders)."""
    made = []
    original = DeformationState.next_order

    def checked(state, *args, **kwargs):
        new = original(state, *args, **kwargs)
        check(state, new)
        made.append((state.order, new.order,
                     new.residuals is state.residuals
                     and new.residual_orders is state.residual_orders))
        return new
    monkeypatch.setattr(DeformationState, "next_order", checked)
    return run_solver(prob), made


def _residuals_equal_fresh_ones(state, new):
    assert _structure(new.residuals) == _structure(_fresh(new).residuals)


@pytest.mark.parametrize("name, seed, order", SOLVER_RUNS)
def test_carried_residuals_equal_fresh_ones(monkeypatch, name, seed, order):
    res, made = _solve_checking_states(
        monkeypatch, _file_problem(name, seed, order),
        _residuals_equal_fresh_ones)
    assert res.ok and res.state.order == order
    # no step has a cocycle: the seeded family goes straight to the target
    assert made == [(1, order, True)]


@pytest.mark.parametrize("seed", CORRECTED_SEEDS)
def test_carried_residuals_equal_fresh_ones_after_a_correction(
        monkeypatch, p3_hyperplane_sub, seed):
    res, made = _solve_checking_states(
        monkeypatch, _extended_hyperplane(p3_hyperplane_sub, seed, 6),
        _residuals_equal_fresh_ones)
    assert res.ok and res.state.order == 6
    assert res.verify["pass"] and res.char_map_identity
    # the order-two step corrects the family; the corrected one goes
    # straight to the target
    assert made == [(1, 2, False), (2, 6, True)]


@pytest.mark.parametrize("name, seed, order", SOLVER_RUNS)
def test_solver_verify_matches_a_fresh_state(name, seed, order):
    """The report `run_solver` reads from the residuals it kept is the one a
    newly built state with the same series computes from nothing."""
    prob = _file_problem(name, seed, order)
    res = run_solver(prob)
    assert res.ok
    fresh = DeformationState(prob, res.state.order, dict(res.state.phi),
                             dict(res.state.lam))
    assert "residuals" not in vars(fresh)
    assert res.verify == verify_family(fresh, prob.order)


def _vanishing_order(series_or_list, cap: int) -> int:
    """Largest m <= cap such that everything vanishes in degrees <= m."""
    items = series_or_list if isinstance(series_or_list, list) else [series_or_list]
    return min([cap] + [sum(e) - 1 for s in items for e in s.terms])


def _verify_from_scratch(state, order):
    """`verify_family` as it was before the vanishing orders were kept:
    every term of every residual series scanned for the report."""
    M = order
    report = {"order": M, "gluing": {}, "ideal": {}, "lambda_gluing": {},
              "jacobi": {}}
    for key, residual in state.residuals.items():
        for at, rows in sorted(residual.items()):
            label = "|".join(at) if isinstance(at, tuple) else at
            report[key][label] = _vanishing_order(rows, M)
    orders = [o for key in state.residuals for o in report[key].values()]
    report["pass"] = all(o >= M for o in orders)
    report["verified_order"] = min(orders or [M])
    return report


def _cocycle_monomials(state):
    """The parameter monomials of the order step's cocycle, every residual
    series scanned for degree m+1."""
    keys = ("gluing", "ideal") + (("jacobi", "lambda_gluing")
                                  if state.problem.mode == "extended" else ())
    return sorted({te for key in keys
                   for rows in state.residuals[key].values()
                   for ser in (rows if isinstance(rows, list) else [rows])
                   for te in ser.homogeneous(state.order + 1)})


def _verify_and_cocycle_as_a_fresh_scan(state, new):
    """`verify_family` at the new state's order and at the target order,
    and the cocycle monomials of both states, equal those computed from
    nothing on states built from copies of their series."""
    for cap in (new.order, new.problem.order):
        assert verify_family(new, cap) == _verify_from_scratch(_fresh(new),
                                                               cap)
    for st in (state, new):
        assert sorted(obstruction_cocycle(st).totals) == \
            _cocycle_monomials(_fresh(st))


@pytest.mark.parametrize("name, seed, order", SOLVER_RUNS)
def test_kept_vanishing_orders_verify_as_a_fresh_scan(monkeypatch, name,
                                                      seed, order):
    prob = _file_problem(name, seed, order)
    res, made = _solve_checking_states(monkeypatch, prob,
                                       _verify_and_cocycle_as_a_fresh_scan)
    assert res.ok and made == [(1, order, True)]
    assert res.verify == _verify_from_scratch(
        DeformationState(prob, order, dict(res.state.phi),
                         dict(res.state.lam)), order)


@pytest.mark.parametrize("seed", CORRECTED_SEEDS)
def test_kept_vanishing_orders_verify_as_a_fresh_scan_after_a_correction(
        monkeypatch, p3_hyperplane_sub, seed):
    res, made = _solve_checking_states(
        monkeypatch, _extended_hyperplane(p3_hyperplane_sub, seed, 6),
        _verify_and_cocycle_as_a_fresh_scan)
    assert res.ok and res.verify["pass"]
    assert made == [(1, 2, False), (2, 6, True)]


def _count_calls(monkeypatch, *names):
    """Count the calls of the named functions of `deformation`."""
    calls = dict.fromkeys(names, 0)
    for fname in calls:
        original = getattr(deformation, fname)

        def counted(*args, _original=original, _name=fname):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(deformation, fname, counted)
    return calls


def test_solve_computes_residuals_once_per_family(monkeypatch):
    calls = _count_calls(monkeypatch, "gluing_mismatch", "ideal_residual")
    code, _ = run_command(["solve", str(EXAMPLES / "p3_hyperplane.pdef"),
                           "--order", "10"])
    assert code == 0
    # the seeded family, which goes straight to order 10
    assert calls == {"gluing_mismatch": 1, "ideal_residual": 1}


def test_a_corrected_family_computes_its_residuals_again(monkeypatch,
                                                         p3_hyperplane_sub):
    calls = _count_calls(monkeypatch, "gluing_mismatch", "ideal_residual")
    res = run_solver(_extended_hyperplane(p3_hyperplane_sub, (0, 14), 4))
    assert res.ok and res.state.order == 4
    # the seeded family and the one the order-two step corrects
    assert calls == {"gluing_mismatch": 2, "ideal_residual": 2}


# the step systems built, the ambient sections computed and the systems
# solved
STEP_CALLS = ("CoboundarySystem", "global_sections", "_solve_step")


def test_an_uncorrected_solve_builds_no_step_system(monkeypatch):
    calls = _count_calls(monkeypatch, *STEP_CALLS)
    code, _ = run_command(["solve", str(EXAMPLES / "p3_hyperplane.pdef"),
                           "--order", "40"])
    assert code == 0
    assert calls == {"CoboundarySystem": 0, "global_sections": 0,
                     "_solve_step": 0}


def test_an_empty_order_step_builds_no_step_system(monkeypatch,
                                                   hyperplane_result):
    calls = _count_calls(monkeypatch, *STEP_CALLS)
    state = truncate_state(hyperplane_result.state, 1)
    step = solve_order(state)
    assert isinstance(step, DeformationState) and step.order == 2
    assert step.phi is state.phi and step.lam is state.lam
    assert calls == {"CoboundarySystem": 0, "global_sections": 0,
                     "_solve_step": 1}


@pytest.mark.parametrize("seed", CORRECTED_SEEDS)
def test_a_corrected_family_builds_one_step_system(monkeypatch,
                                                   p3_hyperplane_sub, seed):
    calls = _count_calls(monkeypatch, *STEP_CALLS)
    res = run_solver(_extended_hyperplane(p3_hyperplane_sub, seed, 6))
    assert res.ok and res.state.order == 6
    # the order-two step, on the ambient sections of the extended mode
    assert calls == {"CoboundarySystem": 1, "global_sections": 1,
                     "_solve_step": 1}


def test_initial_state_shape(p3_hyperplane_sub):
    prob = DeformationProblem(p3_hyperplane_sub, ("t",), order=3, degree=2)
    state = initial_state(prob)
    assert state.order == 0
    assert all(s.is_zero() for rows in state.phi.values() for s in rows)
    for name in prob.space.chart_names:
        ser = state.lam[name]
        assert ser.order_zero() == prob.submanifold.manifold.bivector(name)
