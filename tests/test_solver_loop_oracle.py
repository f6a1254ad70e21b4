"""`deformation.run_solver` against the loop it replaced.

The parent solver ran `solve_order` at every order from the seeded family
to the target, on one step system built before the first step. The loop
that replaced it moves an unchanged family straight to the first order
whose cocycle is non-empty, and builds the system only for a step that
runs. The parent's `run_solver` and the `solve_order` it called are kept
here verbatim. On every problem below both must give the same result, field
by field, or raise the same error with the same message; and at every order
the new loop skips, a state built from nothing must have an empty cocycle.
"""

from pathlib import Path

import pytest

import poissondef
from conftest import prescribed_instability
from test_deformation import (CORRECTED_SEEDS, SOLVER_RUNS, _extended_hyperplane,
                              _steep_prescribed_problem, _structure)
from poissondef.complexes import (CoboundarySystem, characteristic_map,
                                  cochain_lincomb, coordinates, h0_complex)
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    Obstructed, SolverResult, _ambient_basis,
                                    _solve_step, _step_descriptor,
                                    _step_system, add_direction, initial_state,
                                    obstruction_cocycle, run_solver,
                                    verify_family)
from poissondef.dsl import parse
from poissondef.errors import (DegreeBoundTooSmall, InconsistentData,
                               InvalidDeformation, NotInKernel,
                               ParameterMismatch, ToolkitError)
from poissondef.polyvector import Polyvector

EXAMPLES = Path(poissondef.__file__).parent / "examples"


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------

def solve_order(state: DeformationState, *,
                system: CoboundarySystem | None = None
                ) -> DeformationState | Obstructed:
    """Extend an order-m family to order m+1 or report the obstruction.

    Only the parameter monomials with a non-zero solution correct the
    family. When none does, the family is unchanged and the new state takes
    over its residuals (`DeformationState.next_order`); otherwise they are
    computed afresh. Either way the produced state is re-verified from its
    residuals, which the next step reads as its cocycle. When the step is
    infeasible at the requested polynomial degree bound but becomes
    feasible one or two degrees higher, DegreeBoundTooSmall is raised
    instead of declaring an obstruction; those retries read the ambient
    sections back from the system's non-atom unknowns (`others`).
    `system` is the problem's `_step_system` at its degree bound, built here
    when not given.
    """
    problem = state.problem
    D = problem.degree
    cocycle = obstruction_cocycle(state)
    if system is None:
        system = _step_system(problem, D, _ambient_basis(problem))
    solutions, witness = _solve_step(cocycle, system)
    if solutions is None:
        tested = {D: "infeasible"}
        for bump in (D + 1, D + 2):
            got, _ = _solve_step(cocycle, _step_system(problem, bump,
                                                       system.others))
            tested[bump] = "feasible" if got is not None else "infeasible"
        if any(v == "feasible" for v in tested.values()):
            raise DegreeBoundTooSmall(
                f"order {cocycle.order} infeasible at degree {D} but "
                f"feasible within two degrees: {tested}")
        return Obstructed(cocycle.order, cocycle, witness, tested)
    phi, lam = state.phi, state.lam
    for te, sol in solutions.items():
        if any(sol):
            phi, lam = add_direction(phi, lam, te,
                                     cochain_lincomb(sol, system.unknowns))
    new_state = state.next_order(phi, lam)
    check = verify_family(new_state, new_state.order)
    if not check["pass"]:
        raise InconsistentData(
            f"order step produced an invalid family: {check}")
    return new_state


def parent_run_solver(problem: DeformationProblem) -> SolverResult:
    """Seed from the degree-zero basis (fixed/extended) or from the given
    ambient family (prescribed), then extend order by order to the target."""
    S = problem.submanifold
    space = problem.space
    M = problem.order
    state = initial_state(problem)
    h0 = None
    chosen = []
    descriptor = None
    if problem.mode in ("fixed", "extended"):
        descriptor = _step_descriptor(problem)
        h0 = h0_complex(descriptor, problem.bound)
        if problem.directions is not None:
            chosen = list(problem.directions)
            for d in chosen:
                if coordinates(h0.basis, d)[0] is None:
                    raise NotInKernel(
                        "a seeding direction lies outside the degree-zero "
                        "cohomology")
        else:
            indices = (tuple(problem.seed) if problem.seed is not None
                       else tuple(range(h0.dimension)))
            for n, i in enumerate(indices):
                why = ("out of range" if not 0 <= i < h0.dimension
                       else "repeated" if i in indices[:n] else None)
                if why:
                    raise ParameterMismatch(
                        f"seed index {i} is {why} for a degree-zero basis "
                        f"of dimension {h0.dimension}")
            chosen = [h0.basis[i] for i in indices]
        if len(chosen) != len(problem.params):
            raise ParameterMismatch(
                f"{len(problem.params)} parameters for {len(chosen)} chosen "
                f"directions")
        phi, lam = state.phi, state.lam
        for rho, sec in enumerate(chosen):
            phi, lam = add_direction(phi, lam, tuple(
                int(i == rho) for i in range(len(problem.params))), sec)
        state = DeformationState(problem, 1, phi, lam)
        seeded = verify_family(state, 1)
        if not seeded["pass"]:
            raise InconsistentData(
                f"seeded first-order family fails its congruences: {seeded}")
    else:
        for name in space.chart_names:
            central = state.lam[name].order_zero()
            expected = S.manifold.bivector(name)
            if central is None:
                central = Polyvector.zero(space.chart(name).vars, 2)
            if not (central - expected).is_zero():
                raise InvalidDeformation(
                    f"prescribed family does not start at the central "
                    f"structure on chart {name}")
        pres = verify_family(state, M)
        if (any(v < M for v in pres["lambda_gluing"].values())
                or any(v < M for v in pres["jacobi"].values())):
            raise InvalidDeformation(
                f"prescribed ambient family is not a deformation: {pres}")
        if (any(v < 0 for v in pres["gluing"].values())
                or any(v < 0 for v in pres["ideal"].values())):
            raise InvalidDeformation(
                "central fibre of the prescribed family does not contain "
                "the submanifold as a Poisson submanifold")
    system = (_step_system(problem, problem.degree, _ambient_basis(problem))
              if state.order < M else None)
    while state.order < M:
        nxt = solve_order(state, system=system)
        if isinstance(nxt, Obstructed):
            return SolverResult(problem, state, nxt, h0, chosen, None, None)
        state = nxt
    final = verify_family(state, M)
    char_ok = None
    if problem.mode in ("fixed", "extended") and chosen:
        coords = characteristic_map(descriptor, chosen, state)
        char_ok = all(
            all(c == (1 if j == rho else 0) for j, c in enumerate(vec))
            for rho, vec in enumerate(coords))
        if not char_ok:
            raise InconsistentData(
                "produced family does not restrict to the chosen directions")
    return SolverResult(problem, state, None, h0, chosen, final, char_ok)


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------

def _result(solver, problem):
    """Every field of the solver's result, down to the exact coefficients,
    or the type and message of the error it raised."""
    try:
        res = solver(problem)
    except ToolkitError as err:
        return type(err), str(err)
    obs = res.obstructed
    return {
        "problem": res.problem is problem,
        "order": res.state.order,
        "phi": _structure(res.state.phi),
        "lam": _structure(res.state.lam),
        "obstructed": None if obs is None else (
            obs.order, obs.witness, obs.tested_degrees, obs.cocycle.order,
            _structure(obs.cocycle.totals), obs.cocycle.certificates),
        "h0": None if res.h0 is None else (
            res.h0.dimension, _structure(res.h0.basis)),
        "chosen": _structure(res.chosen_basis),
        "verify": res.verify,
        "char_map_identity": res.char_map_identity,
    }


def _assert_same_as_the_parent(monkeypatch, make):
    """Both loops on their own copy of the problem give the same result,
    and every order the new loop skips has an empty cocycle on a state
    built from copies of the family's series."""
    jumps = []
    original = DeformationState.next_order

    def recorded(state, phi, lam, order=None):
        new = original(state, phi, lam, order)
        if order is not None:
            jumps.append((state, new))
        return new
    old = _result(parent_run_solver, make())
    with monkeypatch.context() as patch:
        patch.setattr(DeformationState, "next_order", recorded)
        new = _result(run_solver, make())
    assert new == old
    for state, jumped in jumps:
        assert jumped.phi is state.phi and jumped.lam is state.lam
        for m in range(state.order, jumped.order):
            fresh = DeformationState(state.problem, m, dict(state.phi),
                                     dict(state.lam))
            assert obstruction_cocycle(fresh).totals == {}, m
    return old


def _file_problem(name, seed=None, order=None, degree=None):
    doc = parse((EXAMPLES / f"{name}.pdef").read_text())
    return doc.problem(order=order, seed=seed, degree=degree)


@pytest.mark.parametrize("name, seed, order", SOLVER_RUNS)
def test_workload_solves_match_the_parent_loop(monkeypatch, name, seed,
                                               order):
    res = _assert_same_as_the_parent(
        monkeypatch, lambda: _file_problem(name, seed, order))
    assert res["order"] == order and res["verify"]["pass"]


@pytest.mark.parametrize("seed", CORRECTED_SEEDS)
def test_corrected_families_match_the_parent_loop(monkeypatch,
                                                  p3_hyperplane_sub, seed):
    res = _assert_same_as_the_parent(
        monkeypatch, lambda: _extended_hyperplane(p3_hyperplane_sub, seed, 6))
    assert res["order"] == 6 and res["verify"]["pass"]


@pytest.mark.parametrize("name", ["f0_instability", "f2_instability",
                                  "p3_hyperplane"])
@pytest.mark.parametrize("degree", [0, 1])
def test_low_degree_solves_match_the_parent_loop(monkeypatch, name, degree):
    _assert_same_as_the_parent(
        monkeypatch, lambda: _file_problem(name, degree=degree))


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_prescribed_instabilities_match_the_parent_loop(monkeypatch, m,
                                                        degree):
    res = _assert_same_as_the_parent(
        monkeypatch, lambda: prescribed_instability(m, degree))
    assert res["obstructed"] is not None


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_steep_prescribed_problem_matches_the_parent_loop(monkeypatch,
                                                          degree):
    res = _assert_same_as_the_parent(
        monkeypatch, lambda: _steep_prescribed_problem(degree))
    if degree == 0:
        assert res[0] is DegreeBoundTooSmall
    else:
        assert res["verify"]["pass"]
