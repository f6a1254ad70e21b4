"""Order-by-order deformation engine.

A family is stored chartwise: truncated series (in the deformation
parameters) of tangential functions describing how each normal coordinate
moves, plus — when the ambient structure varies — a truncated series of
bivectors per chart. Three modes:

- "fixed":      the ambient structure stays put; unknowns are the normal
                motions, seeded from the degree-zero cohomology of the
                restricted-tuple complex.
- "extended":   the ambient bivector moves too, seeded from the paired
                complex; each order solves jointly for a global bivector
                correction and chartwise normal corrections.
- "prescribed": the ambient family is given (possibly with Laurent
                coefficients); only normal motions are solved, with the
                central-fibre operators on the left-hand side.

A family's coefficient at a parameter monomial is a degree-zero cochain of
the controlling complex: `complexes.family_direction` reads it and
`add_direction` writes it. Seeding, the order steps, matching and the
small-ring lifting shifts all go through these two.

A family state is immutable, and its four residuals (the moved ideals fail
to glue, the moved ideal is not a bracket ideal, the bivectors fail to glue,
[Lambda, Lambda] != 0) are computed once per distinct family, on first use
(`DeformationState.residuals`), with the vanishing order of each series
(`DeformationState.residual_orders`): `verify_family` caps those orders at
the order it checks, and the next order step reads the degree-(m+1)
coefficients of the series that have any. They depend on the problem and
the series alone, so an order step that adds nothing hands them on to the
next state (`DeformationState.next_order`).

Every order step first assembles the obstruction cocycle and certifies its
closedness identities exactly (a failure raises ClosednessViolation and
indicates a bug, never bad luck); then a sparse exact linear system is solved
per parameter monomial. Both go through the Cech total complex of the
restricted-tuple complex, or of the paired one in extended mode
(`complexes.total_closedness`, `complexes.total_coboundary`). The cocycle is
one `ObstructionCocycle`: per parameter monomial one degree-one total
cochain, `residual_total` of the state's residuals, computed once and
certified by `certify_cocycle`; the step solves for exactly the cochain
the certificate checks. The small-ring obstruction class (`artin`) is
`certify_cocycle` of the same residuals at order m+1, so the two share one
container. `residual_total` restricts the normal chart part to the
submanifold, where a cochain of the normal complex lives; on the solver's
states that changes nothing, since their ideal residual carries no normal
variable. The step's system is a `complexes.CoboundarySystem`, the one the
small-ring liftability solves too, under its own row labels: its unknowns
are the monomial atoms (`complexes.monomial_atoms`), then the ambient
sections, and each column is the rows of an unknown's total coboundary over
every ordered overlap, the same overlaps the cocycle carries: an atom's
built from its entries by `complexes.atom_rows`, a section's by
`complexes.total_rows` of `complexes.total_coboundary`. The columns
depend only on the problem, the degree bound and the sections, so
`run_solver` builds one system for all of a run's steps, and only once a
step's cocycle is non-empty: a step with an empty cocycle adds nothing, and
an unchanged family's residuals already tell at which order its cocycle is
next non-empty (`_first_obstructed_order`), so the family moves straight
there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .complexes import (
    CoboundarySystem,
    CohomologyReport,
    build_complex,
    cochain_is_zero,
    cochain_lincomb,
    characteristic_map,
    coordinates,
    direction_coordinates,
    family_direction,
    first_order_directions,
    global_sections,
    h0_complex,
    kept_complex,
    monomial_atoms,
    total_closedness,
)
from .errors import (
    DegreeBoundTooSmall,
    InconsistentData,
    InvalidDeformation,
    MatchFailure,
    NotInKernel,
    ParameterMismatch,
)
from .geometry import SubmanifoldData
from .polyvector import Polyvector, restrict, schouten
from .symbolic import (
    LaurentPoly,
    TruncatedSeries,
    combine,
    substitute,
)


# ----------------------------------------------------------------------
# Series utilities
# ----------------------------------------------------------------------

def series_schouten(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return combine(a, b, schouten)


def subs_normal_pv_series(X: TruncatedSeries, assign: Mapping[str, object],
                          chart_vars, params, cutoff) -> TruncatedSeries:
    """Substitute series or polynomial values, on the chart of `chart_vars`,
    for variables inside the Laurent coefficients of a polyvector series,
    keeping the frame indices unchanged: the normal motions in the ideal
    residual, and the moved chart's coordinates in a motion composed with a
    transition (a degree-zero series)."""
    out_terms: dict = {}
    for te, pv in X.terms.items():
        for idx, coeff in pv.terms.items():
            sub = substitute(coeff, assign)
            if isinstance(sub, LaurentPoly):
                sub = TruncatedSeries.const(params, cutoff, sub)
            for e2, c2 in sub.terms.items():
                tot = tuple(x + y for x, y in zip(te, e2))
                if sum(tot) > cutoff:
                    continue
                piece = Polyvector(chart_vars, pv.degree,
                                   {idx: c2.with_vars(chart_vars)})
                if tot in out_terms:
                    out_terms[tot] = out_terms[tot] + piece
                else:
                    out_terms[tot] = piece
    return TruncatedSeries(params, cutoff, out_terms)


def add_direction(phi: dict, lam: dict, te: tuple, cochain: dict) -> tuple:
    """Fresh (phi, lam) with te * cochain added: its "nor" part to the
    normal motions, its "amb" part to the bivectors, each term taking the
    parameters and cutoff of the series it is added to."""
    def plus(ser, coeff):
        return ser + TruncatedSeries(ser.params, ser.cutoff, {te: coeff})
    phi = {name: list(rows) for name, rows in phi.items()}
    lam = dict(lam)
    for name, tup in cochain.get("nor", {}).items():
        phi[name] = [plus(ser, pv.as_function())
                     for ser, pv in zip(phi[name], tup)]
    for name, pv in cochain.get("amb", {}).items():
        lam[name] = plus(lam[name], pv)
    return phi, lam


def _reparametrise(ser: TruncatedSeries, h, params, cutoff) -> TruncatedSeries:
    """The series `ser` with its parameters replaced by the scalar series
    `h`, one per parameter, in `params`, the parameters of `h`."""
    out = TruncatedSeries.zero(params, cutoff)
    for te, coeff in ser.terms.items():
        piece = TruncatedSeries.const(params, cutoff, coeff)
        for rho, power in enumerate(te):
            for _ in range(power):
                piece = piece * h[rho]
        out = out + piece
    return out


def _identity_assign(vars, exclude=()):
    return {v: LaurentPoly.variable(vars, v) for v in vars if v not in exclude}


# ----------------------------------------------------------------------
# Problem and state
# ----------------------------------------------------------------------

MODES = ("fixed", "extended", "prescribed")


class DeformationProblem:
    # plain classes on purpose: `dataclasses` costs about 14 ms a launch
    __slots__ = ("submanifold", "params", "order", "degree", "mode",
                 "prescribed", "seed", "directions", "bound")

    def __init__(self, submanifold: SubmanifoldData, params: tuple,
                 order: int, degree: int, mode: str = "fixed",
                 prescribed: dict | None = None, seed: tuple | None = None,
                 directions: list | None = None, bound: int | None = None):
        if mode not in MODES:
            raise InconsistentData(f"unknown mode {mode!r}")
        if mode == "prescribed" and prescribed is None:
            raise InconsistentData("prescribed mode needs the ambient family")
        self.submanifold = submanifold
        self.params = tuple(params)
        self.order = order            # target order M
        self.degree = degree          # polynomial degree bound for motions
        self.mode = mode
        self.prescribed = prescribed  # chart -> TruncatedSeries of bivectors
        self.seed = seed              # indices into the degree-zero basis
        self.directions = directions  # explicit degree-zero cochains instead
        self.bound = bound            # section degree bound override

    @property
    def space(self):
        return self.submanifold.space

    @property
    def ambient_varies(self) -> bool:
        """Whether the family moves the ambient bivector too."""
        return self.mode != "fixed"


class DeformationState:
    def __init__(self, problem: DeformationProblem, order: int, phi: dict,
                 lam: dict):
        self.problem = problem
        self.order = order
        self.phi = phi      # chart -> [TruncatedSeries(LaurentPoly)]*r
        self.lam = lam      # chart -> TruncatedSeries(Polyvector)

    @property
    def params(self):
        return self.problem.params

    @cached_property
    def residuals(self) -> dict:
        """The failures of the family, computed on first use: "gluing" and
        "ideal" (rows of series per overlap and per present chart), and in
        the extended and prescribed modes "lambda_gluing" and "jacobi" (one
        series per overlap and per chart). They are a function of the
        problem, `phi` and `lam` alone, so a state that `next_order` makes
        from the same series takes them over and they are computed once per
        distinct family."""
        problem = self.problem
        out = {"gluing": gluing_mismatch(problem, self.phi),
               "ideal": ideal_residual(problem, self.phi, self.lam)}
        if problem.ambient_varies:
            out["lambda_gluing"] = lambda_gluing_mismatch(problem.space,
                                                          self.lam)
            out["jacobi"] = jacobi_residual(self.lam)
        return out

    @cached_property
    def residual_orders(self) -> dict:
        """Per residual and overlap or chart, the uncapped vanishing order
        of each of its series, in `residual_series` order: the largest m
        such that the series vanishes in degrees <= m, or None when it is
        zero. Computed once per distinct family, like the residuals."""
        orders = {}
        for key, residual in self.residuals.items():
            orders[key] = per = {at: [] for at in residual}
            for at, _, ser in residual_series(residual):
                low = ser.min_order()
                per[at].append(None if low is None else low - 1)
        return orders

    def next_order(self, phi: dict, lam: dict,
                   order: int | None = None) -> DeformationState:
        """The family (phi, lam) at order m+1, or at `order` when given.
        When phi and lam are this state's own series, the family is
        unchanged and the new state shares this state's residuals and their
        vanishing orders instead of computing them again."""
        new = DeformationState(self.problem,
                               self.order + 1 if order is None else order,
                               phi, lam)
        if phi is self.phi and lam is self.lam:
            vars(new)["residuals"] = self.residuals
            vars(new)["residual_orders"] = self.residual_orders
        return new


def initial_state(problem: DeformationProblem) -> DeformationState:
    S = problem.submanifold
    space = problem.space
    M = problem.order
    phi = {}
    for name in S.present_charts():
        phi[name] = [TruncatedSeries.zero(problem.params, M)
                     for _ in range(S.codim)]
    lam = {}
    for name in space.chart_names:
        if problem.mode == "prescribed":
            ser = problem.prescribed.get(name)
            if ser is None:
                raise InconsistentData(f"no prescribed bivectors on chart {name}")
            if ser.params != problem.params or ser.cutoff < M:
                raise ParameterMismatch(
                    "prescribed family parameters or cutoff do not match")
            lam[name] = ser.truncate(M)
        else:
            lam[name] = TruncatedSeries.const(
                problem.params, M, S.manifold.bivector(name))
    return DeformationState(problem, 0, phi, lam)


# ----------------------------------------------------------------------
# Congruence machinery
# ----------------------------------------------------------------------

def _chart_assign(problem, phi, chart):
    """Assignment substituting the normal motions for the normal variables
    and keeping tangential variables, on one chart."""
    space = problem.space
    cvars = space.chart(chart).vars
    S = problem.submanifold
    assign = _identity_assign(cvars)
    for a, wv in enumerate(S.normal[chart]):
        assign[wv] = phi[chart][a]
    return assign


def gluing_mismatch(problem, phi) -> dict:
    """Per ordered overlap of present charts: the series
    (motion of chart i composed with the transition) minus (transition
    applied to the motion of chart k), as functions on chart k."""
    S = problem.submanifold
    space = problem.space
    M = next(iter(phi.values()))[0].cutoff
    present = S.present_charts()
    out = {}
    for (i, k) in space.overlap_pairs():
        if i not in present or k not in present or i == k:
            continue
        kvars = space.chart(k).vars
        assign_k = _chart_assign(problem, phi, k)
        rows = []
        arg = {}
        for v in S.tangential[i]:
            expr = space.transitions[(i, k)][v]
            val = substitute(expr, assign_k)
            if isinstance(val, LaurentPoly):
                val = val.with_vars(kvars)
            arg[v] = val
        for v in S.normal[i]:
            arg[v] = LaurentPoly.zero(kvars)
        for a, wv in enumerate(S.normal[i]):
            f_ik = space.transitions[(i, k)][wv]
            lhs = substitute(f_ik, assign_k)
            if isinstance(lhs, LaurentPoly):
                lhs = TruncatedSeries.const(problem.params, M, lhs.with_vars(kvars))
            else:
                lhs = lhs.map(lambda c: c.with_vars(kvars))
            rhs = subs_normal_pv_series(
                phi[i][a].map(Polyvector.from_function), arg, kvars,
                problem.params, M).map(Polyvector.as_function)
            rows.append(rhs - lhs)
        out[(i, k)] = rows
    return out


def ideal_residual(problem, phi, lam) -> dict:
    """Per present chart: the series of vector fields obtained by bracketing
    the ambient family with (normal coordinate minus its motion) and
    evaluating on the moved locus."""
    S = problem.submanifold
    space = problem.space
    M = next(iter(phi.values()))[0].cutoff
    out = {}
    for name in S.present_charts():
        cvars = space.chart(name).vars
        assign = _chart_assign(problem, phi, name)
        rows = []
        for a, wv in enumerate(S.normal[name]):
            w_pv = TruncatedSeries.const(
                problem.params, M,
                Polyvector.from_function(LaurentPoly.variable(cvars, wv)))
            phi_pv = phi[name][a].map(
                lambda f: Polyvector.from_function(f.with_vars(cvars)))
            bracket = series_schouten(lam[name], w_pv - phi_pv)
            rows.append(subs_normal_pv_series(
                bracket, assign, cvars, problem.params, M))
        out[name] = rows
    return out


def lambda_gluing_mismatch(space, lam) -> dict:
    """Per ordered overlap (k, i): the bivector series of chart k moved to
    chart i, minus that of chart i."""
    return {(k, i): lam[k].map(lambda pv: space.pushforward(pv, k, i)) - lam[i]
            for (i, k) in space.overlap_pairs()}


def jacobi_residual(lam) -> dict:
    """Per chart: [Lambda, Lambda] of its bivector series."""
    return {name: series_schouten(ser, ser) for name, ser in lam.items()}


def verify_family(state: DeformationState, order: int | None = None) -> dict:
    """Exact per-identity verification of a family up to the given order.

    Reports, for each residual of the state, the largest order up to which
    it vanishes (its `residual_orders` capped at the requested order), per
    overlap "i|k" or chart; pass means every identity holds there.
    """
    M = state.problem.order if order is None else order
    report = {"order": M, "gluing": {}, "ideal": {}, "lambda_gluing": {},
              "jacobi": {}}
    for key, residual in state.residual_orders.items():
        for at, orders in sorted(residual.items()):
            label = "|".join(at) if isinstance(at, tuple) else at
            report[key][label] = min([M] + [o for o in orders
                                            if o is not None])
    orders = [o for key in state.residuals for o in report[key].values()]
    report["pass"] = all(o >= M for o in orders)
    report["verified_order"] = min(orders or [M])
    return report


# ----------------------------------------------------------------------
# Obstruction cocycle
# ----------------------------------------------------------------------

class ObstructionCocycle:
    """The obstruction at one order: per parameter monomial, the degree-one
    total cochain (chart part, overlap part) that `residual_total` reads
    from a family's residuals, with its exact closedness certificates."""
    __slots__ = ("order", "totals", "certificates")

    def __init__(self, order: int, totals: dict, certificates: dict):
        self.order = order                # the order being obstructed (m+1)
        self.totals = totals              # te -> (chart part, overlap part)
        self.certificates = certificates

    def is_zero(self) -> bool:
        return all(cochain_is_zero(chart) and cochain_is_zero(overlap)
                   for chart, overlap in self.totals.values())


def residual_series(residual: dict):
    """(overlap or chart, row, series) of one residual of a family
    (`DeformationState.residuals`), whose values are rows of series or one
    series."""
    for at, rows in residual.items():
        for a, ser in enumerate(rows if isinstance(rows, list) else [rows]):
            yield at, a, ser


def obstruction_cocycle(state: DeformationState) -> ObstructionCocycle:
    """The certified degree-(m+1) obstruction of an order-m family, at the
    parameter monomials where "gluing", "ideal" or, in extended mode,
    "jacobi" or "lambda_gluing" has a degree-(m+1) coefficient. Only the
    series that do not vanish through degree m+1 (`residual_orders`) are
    scanned."""
    problem = state.problem
    m1 = state.order + 1
    res, orders = state.residuals, state.residual_orders
    monomials = sorted({te for key in _cocycle_keys(problem)
                        for at, a, ser in residual_series(res[key])
                        if (o := orders[key][at][a]) is not None and o < m1
                        for te in ser.homogeneous(m1)})
    return certify_cocycle(_step_descriptor(problem), res, m1, monomials)


def _cocycle_keys(problem: DeformationProblem) -> tuple:
    """The residuals whose coefficients make up the obstruction cocycle:
    "gluing" and "ideal", and in extended mode "jacobi" and
    "lambda_gluing"."""
    return ("gluing", "ideal") + (
        ("jacobi", "lambda_gluing") if problem.mode == "extended" else ())


def _first_obstructed_order(state: DeformationState) -> int:
    """The smallest vanishing order (`residual_orders`) of a residual of
    `_cocycle_keys`, capped at the target order M. On a state that verifies
    at its own order m, that order T is at least m; the steps at m, ...,
    T-1 have an empty cocycle, since no such series has a coefficient in
    degrees m+1, ..., T, and when T < M the step at T has a non-empty
    one."""
    orders = state.residual_orders
    return min([state.problem.order] + [
        o for key in _cocycle_keys(state.problem)
        for per in orders[key].values() for o in per if o is not None])


def _step_descriptor(problem: DeformationProblem):
    """The complex whose total complex carries the order steps: the paired
    complex in extended mode, the restricted-tuple one otherwise. Kept on
    the submanifold (`complexes.kept_complex`), so that its seeding,
    cocycles, systems and characteristic map share one set of compiled
    rules."""
    return kept_complex("extended" if problem.mode == "extended"
                        else "normal", problem.submanifold)


def residual_total(descriptor, residuals: dict, te) -> tuple:
    """The coefficient at parameter monomial `te` of a family's residuals
    (`DeformationState.residuals`) as a degree-one total cochain (chart
    part, overlap part), for the descriptor's parts: the normal chart part
    is minus "ideal" restricted to the submanifold, the normal overlap part
    on (i, k) is minus "gluing" moved to chart i, the ambient chart part is
    half "jacobi" and the ambient overlap part on (i, k) is "lambda_gluing"
    at (k, i).

    A cochain of the normal complex lives along the submanifold, hence the
    restriction. On the solver's states it changes nothing: "ideal"
    substitutes every normal variable by its motion, and the solver's
    motions vary only the tangential exponents (`monomial_atoms`), so no
    normal variable is left to set to zero. A family the caller gives
    (`artin`) may hold normal variables in its motions."""
    space = descriptor.space
    chart, overlap = {}, {}
    if "nor" in descriptor.parts:
        S = descriptor.submanifold
        chart["nor"] = {name: [restrict(-ser.coefficient(te, Polyvector.zero(
            space.chart(name).vars, 1)), S.normal[name]) for ser in rows]
            for name, rows in residuals["ideal"].items()}
        overlap["nor"] = {(i, k): [Polyvector.from_function(
            -S.substitute_tangential(ser.coefficient(te, LaurentPoly.zero(
                space.chart(k).vars)), k, i)) for ser in rows]
            for (i, k), rows in residuals["gluing"].items()}
    if "amb" in descriptor.parts:
        chart["amb"] = {name: ser.coefficient(te, Polyvector.zero(
            space.chart(name).vars, 3)) * Fraction(1, 2)
            for name, ser in residuals["jacobi"].items()}
        overlap["amb"] = {(i, k): ser.coefficient(te, Polyvector.zero(
            space.chart(i).vars, 2))
            for (k, i), ser in residuals["lambda_gluing"].items()}
    return chart, overlap


def certify_cocycle(descriptor, residuals: dict, order: int,
                    monomials) -> ObstructionCocycle:
    """The order-`order` obstruction of a family with these residuals: per
    parameter monomial of `monomials`, `residual_total` once, certified
    closed by `total_closedness`. Raises ClosednessViolation on failure."""
    totals, certificates = {}, {}
    for te in monomials:
        totals[te] = residual_total(descriptor, residuals, te)
        certificates.update(total_closedness(descriptor, *totals[te]))
    return ObstructionCocycle(order, totals, certificates)


# ----------------------------------------------------------------------
# Order step
# ----------------------------------------------------------------------

class Obstructed:
    __slots__ = ("order", "cocycle", "witness", "tested_degrees")

    def __init__(self, order: int, cocycle: ObstructionCocycle, witness: str,
                 tested_degrees: dict):
        self.order = order
        self.cocycle = cocycle
        self.witness = witness
        self.tested_degrees = tested_degrees


# Row labels of the order-step system, by (cochain part, chart or overlap).
STEP_ROWS = {("nor", "chart"): "G", ("amb", "chart"): "Pi",
             ("nor", "overlap"): "psi", ("amb", "overlap"): "lam"}


def _step_system(problem, degree, amb_basis) -> CoboundarySystem:
    """The order-step system at one degree bound: a `CoboundarySystem` over
    the unknown atoms of degree <= `degree`, then the ambient sections,
    under `STEP_ROWS`. It depends only on the problem, the degree and the
    sections, so one serves every step of a run. The sections glue, so their
    ambient overlap rows are empty."""
    present = problem.submanifold.present_charts()
    descriptor = _step_descriptor(problem)
    atoms = monomial_atoms(descriptor, "nor", 0, present, degree)
    return CoboundarySystem(descriptor, atoms, STEP_ROWS,
                            [{"amb": sec["amb"]} for sec in amb_basis])


def _solve_step(cocycle, system: CoboundarySystem):
    """Solve one order step on the cocycle's total cochains; returns
    (per-te solutions, None) or (None, witness description)."""
    solutions = {}
    for te, total in cocycle.totals.items():
        sol, unreached, bad = system.solve(total)
        if unreached is not None:
            return None, (f"no unknown reaches equation row {unreached} "
                          f"at parameter monomial {te}")
        if sol is None:
            return None, (f"inconsistent at parameter monomial {te}, "
                          f"equation row {bad}")
        solutions[te] = sol
    return solutions, None


def _ambient_basis(problem: DeformationProblem) -> list:
    """The degree-zero bivector sections by which an extended order step may
    move the ambient structure; none in the other modes."""
    if problem.mode != "extended":
        return []
    bdesc = build_complex("bivector", manifold=problem.submanifold.manifold)
    return global_sections(bdesc, problem.bound).basis


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
    `system` is the problem's `_step_system` at its degree bound; when it is
    not given, it is built here if the cocycle is non-empty.
    """
    problem = state.problem
    D = problem.degree
    cocycle = obstruction_cocycle(state)
    if system is None and cocycle.totals:
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
    return _verified(state.next_order(phi, lam))


def _verified(state: DeformationState) -> DeformationState:
    """The state an order step made, after `verify_family` at its order;
    InconsistentData when it fails."""
    check = verify_family(state, state.order)
    if not check["pass"]:
        raise InconsistentData(
            f"order step produced an invalid family: {check}")
    return state


# ----------------------------------------------------------------------
# Full solver
# ----------------------------------------------------------------------

class SolverResult:
    __slots__ = ("problem", "state", "obstructed", "h0", "chosen_basis",
                 "verify", "char_map_identity")

    def __init__(self, problem: DeformationProblem,
                 state: DeformationState | None,
                 obstructed: Obstructed | None, h0: CohomologyReport | None,
                 chosen_basis: list, verify: dict | None,
                 char_map_identity: bool | None):
        self.problem = problem
        self.state = state
        self.obstructed = obstructed
        self.h0 = h0
        self.chosen_basis = chosen_basis
        self.verify = verify
        self.char_map_identity = char_map_identity

    @property
    def ok(self) -> bool:
        return self.obstructed is None


def run_solver(problem: DeformationProblem) -> SolverResult:
    """Seed from the degree-zero basis (fixed/extended) or from the given
    ambient family (prescribed), then extend order by order to the target.

    Only the orders whose cocycle is non-empty run `solve_order`, on one
    step system built for the first of them. From any other order the
    unchanged family moves straight to the next such order
    (`_first_obstructed_order`) or to the target, keeping its residuals,
    and is verified there as the last skipped step would have verified it:
    a family that verifies at an order verifies at every lower one."""
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
    system = None
    while state.order < M:
        target = _first_obstructed_order(state)
        if target > state.order:
            state = _verified(state.next_order(state.phi, state.lam, target))
            continue
        if system is None:
            system = _step_system(problem, problem.degree,
                                  _ambient_basis(problem))
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
# Matching families
# ----------------------------------------------------------------------

def match_families(problem: DeformationProblem, family_t: DeformationState,
                   observed: DeformationState, order: int | None = None):
    """Find a parameter substitution making the solver family agree with an
    observed family order by order; MatchFailure carries the residual when
    no substitution exists.

    Returns (h, report) with h a tuple of truncated series in the observed
    family's parameters.
    """
    M = problem.order if order is None else order
    S = problem.submanifold
    space = problem.space
    seen = observed.problem.submanifold
    if seen.present_charts() != S.present_charts() or seen.codim != S.codim:
        raise InconsistentData(
            "the observed family lies on other charts or in another "
            "codimension than the model")
    s_params = observed.params
    basis = first_order_directions(family_t)
    descriptor = kept_complex(
        "extended" if problem.ambient_varies else "normal", S)
    h = [TruncatedSeries.zero(s_params, M) for _ in problem.params]
    report = {"orders": {}}

    def mismatch():
        """observed - model(h) as (phi, lam), with lam only where the
        ambient structure varies."""
        phi = {name: [obs - _reparametrise(ser, h, s_params, M)
                      for obs, ser in zip(observed.phi[name],
                                          family_t.phi[name])]
               for name in S.present_charts()}
        lam = {name: observed.lam[name] - _reparametrise(
            family_t.lam[name], h, s_params, M)
            for name in space.chart_names} if problem.ambient_varies else {}
        return phi, lam

    stale = True    # whether h changed since `mismatch` last ran
    for step in range(1, M + 1):
        if stale:
            phi, lam = mismatch()
            stale = False
        smonos = sorted({te for ser in sum(phi.values(), []) + list(
                         lam.values()) for te in ser.homogeneous(step)},
                        key=lambda e: (sum(e), e))
        coeffs_per_mono = {}
        for te in smonos:
            cochain = family_direction(problem, phi, lam, te)
            # closedness preconditions -> MatchFailure, never an internal error
            sol, reason, at = direction_coordinates(descriptor, basis, cochain)
            if reason == "not-closed":
                message = (f"order-{step} mismatch is not tangent to the "
                           f"moduli problem (fails the kernel condition)")
            elif reason == "not-glued":
                part, k, i = at
                message = (f"order-{step} mismatch does not glue between {k} "
                           f"and {i}" if part == "nor" else
                           f"order-{step} ambient mismatch does not glue")
            elif reason == "outside-span":
                message = (f"order-{step} mismatch lies outside the span of "
                           f"the solver family's directions (row {at})")
            if reason is not None:
                raise MatchFailure(message, residual=cochain, reason=reason)
            coeffs_per_mono[te] = sol
        for te, sol in coeffs_per_mono.items():
            for rho, val in enumerate(sol):
                if val:
                    h[rho] = h[rho] + TruncatedSeries(s_params, M, {te: val})
                    stale = True
        report["orders"][step] = {str(te): [str(v) for v in sol]
                                  for te, sol in coeffs_per_mono.items()}
    if stale:
        phi, lam = mismatch()
    for rows, message in (
            (sum(phi.values(), []),
             "substituted family still disagrees after matching"),
            (lam.values(), "substituted ambient family still disagrees")):
        if any(not ser.truncate(M).is_zero() for ser in rows):
            raise MatchFailure(message, residual=None, reason="internal")
    report["pass"] = True
    return tuple(h), report
