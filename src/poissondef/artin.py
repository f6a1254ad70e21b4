"""Small-extension obstruction calculus for the three deformation functors.

Given a family defined over a truncated one-parameter base, this module
computes the canonical obstruction class blocking its extension one order
further. The class is the solver's obstruction at that order, a
`deformation.ObstructionCocycle` built and certified by
`deformation.certify_cocycle`: one degree-one total cochain of the Cech
total complex of the functor's controlling complex (see
`complexes.total_coboundary`), the order-(m+1) part of the family's
residuals read by `deformation.residual_total`. The residuals are those of
a `DeformationState` in the prescribed mode (hilb) or the extended mode
(exthilb), and the Jacobi and bivector gluing residuals (def). Below the
new order they must vanish; `_BELOW_ORDER` names each failure. The class's
closedness certificates are `complexes.total_closedness`.
The class lifts when it is the total coboundary of bounded-degree monomial
unknowns (`complexes.monomial_atoms`). That is one exact linear solve of a
`complexes.CoboundarySystem` under `ARTIN_ROWS`, the system the solver's
order step solves under its own labels. A zero class lifts by the zero
lifting, and its system builds no column; a non-empty one builds its
columns, `complexes.atom_rows` of each atom, once. A different choice of
lifting data must move the class by exactly the total coboundary of that
choice, linearised by the same system.

Three functors are covered:

* ``"def"``     — deformations of the ambient Poisson bivector alone;
* ``"hilb"``    — deformations of the submanifold inside a fixed (possibly
                  parameter-dependent) ambient Poisson structure;
* ``"exthilb"`` — simultaneous deformations of the pair.

The total cochain has a chart part and an overlap part, each holding the
cochain parts of the complex: ambient for def, normal for hilb, both for
exthilb.

* chart, ambient   — per chart, half the failure of the extended bivector
                     to square to zero (a trivector);
* chart, normal    — per present chart, minus the failure of the moved
                     ideal to be a bracket ideal, restricted to the
                     submanifold (a tuple of vector fields along it);
* overlap, ambient — per ordered overlap (i, k), the bivector of chart k
                     moved to chart i minus that of chart i;
* overlap, normal  — per ordered overlap (i, k), minus the failure of the
                     moved ideals to agree, moved to chart i (a tuple of
                     functions along the submanifold, as degree-zero
                     polyvectors).
"""

from __future__ import annotations

from .complexes import (CoboundarySystem, h0_complex, kept_complex,
                         monomial_atoms, total_coboundary)
from .deformation import (DeformationProblem, DeformationState,
                          ObstructionCocycle, add_direction, certify_cocycle,
                          jacobi_residual, lambda_gluing_mismatch,
                          residual_series)
from .errors import (ClosednessViolation, InconsistentData, InvalidDeformation,
                     ParameterMismatch)
from .geometry import PoissonManifold, SubmanifoldData
from .polyvector import Polyvector
from .symbolic import LaurentPoly, TruncatedSeries

FUNCTORS = ("def", "hilb", "exthilb")


class ArtinReport:
    # a plain class on purpose: `dataclasses` costs about 14 ms a launch
    __slots__ = ("kind", "order", "cls", "liftable", "witness", "solution",
                 "invariance", "perturbed")

    def __init__(self, kind: str, order: int, cls: ObstructionCocycle,
                 liftable: bool, witness: str | None, solution: dict | None,
                 invariance: dict | None = None,
                 perturbed: ObstructionCocycle | None = None):
        self.kind = kind
        self.order = order
        self.cls = cls
        self.liftable = liftable
        self.witness = witness
        self.solution = solution
        self.invariance = invariance
        self.perturbed = perturbed


# ----------------------------------------------------------------------
# First order: tangent spaces via the cohomology engines
# ----------------------------------------------------------------------

def artin_first_order(kind: str, *, manifold: PoissonManifold | None = None,
                      submanifold: SubmanifoldData | None = None,
                      bound: int | None = None):
    """Tangent space of a functor as the degree-zero hypercohomology of its
    controlling complex. Returns a cohomology report with basis cochains."""
    if kind not in FUNCTORS:
        raise InconsistentData(f"unknown functor kind {kind!r}")
    if kind == "def":
        if manifold is None:
            raise InconsistentData("ambient functor needs the manifold")
    elif submanifold is None:
        raise InconsistentData(f"functor {kind!r} needs the submanifold")
    return h0_complex(_descriptor(kind, submanifold, manifold), bound=bound)


def _descriptor(kind, S, manifold):
    """The controlling complex of a functor, kept on the manifold (def) or
    the submanifold (hilb, exthilb) it is built over, so that one family's
    tangent space and obstruction share it."""
    if kind == "def":
        return kept_complex("bivector", manifold)
    return kept_complex("normal" if kind == "hilb" else "extended", S)


def _unknowns(desc, bound: int, amb_bound: int) -> list:
    """Monomial unknowns of the functor's degree-zero cochains: normal ones
    of degree <= bound, ambient bivectors of degree <= amb_bound."""
    return [atom for part in desc.parts for atom in monomial_atoms(
        desc, part, 0, desc.part_charts(part),
        bound if part == "nor" else amb_bound)]


# ----------------------------------------------------------------------
# Canonical obstruction class of a family at one extension step
# ----------------------------------------------------------------------

def _family_pieces(kind, state, manifold, lam, order):
    """Normalise input: return (S, manifold, phi, lam, m) with the family's
    series cut at m + 1 and its bivectors in chart order."""
    if kind in ("hilb", "exthilb"):
        if state is None:
            raise InconsistentData(f"functor {kind!r} needs a family state")
        S = state.problem.submanifold
        manifold, params = S.manifold, state.params
        phi, lam = state.phi, state.lam
        m = state.order if order is None else order
    else:
        if manifold is None or lam is None:
            raise InconsistentData(
                "ambient functor needs the manifold and the bivector family")
        if order is None:
            raise InconsistentData("ambient functor needs the family order")
        S, phi, params, m = None, {}, next(iter(lam.values())).params, order
    if len(params) != 1:
        raise ParameterMismatch(
            "obstruction calculus works over a one-parameter base")
    if S is None:
        for name in manifold.space.chart_names:
            if name not in lam:
                raise InconsistentData(f"no bivector family on chart {name}")
            if lam[name].order_zero() != manifold.bivector(name):
                raise InvalidDeformation(
                    f"family on chart {name} does not start at the ambient "
                    "bivector")
    phi = {name: [TruncatedSeries(params, m + 1, s.terms) for s in rows]
           for name, rows in phi.items()}
    lam = {name: TruncatedSeries(params, m + 1, lam[name].terms)
           for name in manifold.space.chart_names}
    return S, manifold, phi, lam, m


def _residuals(kind, S, manifold, phi, lam, m) -> dict:
    """The residuals of an order-m family of the functor: those of a
    `DeformationState` whose ambient family is given (hilb) or moves with
    it (exthilb); for def, the Jacobi and bivector gluing residuals."""
    if kind == "def":
        return {"jacobi": jacobi_residual(lam),
                "lambda_gluing": lambda_gluing_mismatch(manifold.space, lam)}
    params = next(iter(lam.values())).params
    problem = DeformationProblem(
        S, params, m + 1, 0, mode="prescribed" if kind == "hilb" else
        "extended", prescribed=lam)
    return DeformationState(problem, m, phi, lam).residuals


# The residuals that must vanish below the new order, in the order they are
# checked: (functors, residual, orders checked beyond m, message). The hilb
# functor takes its ambient family as given, so that family must be a
# deformation through the new order too.
_BELOW_ORDER = (
    (("def", "exthilb"), "jacobi", 0, "bivector family on chart {at} fails "
     "its square-zero identity at order {order}"),
    (("def", "exthilb"), "lambda_gluing", 0, "bivector family does not glue "
     "over the base on overlap ({at[1]}, {at[0]})"),
    (("hilb",), "jacobi", 1, "ambient bivector family on chart {at} fails "
     "its square-zero identity"),
    (("hilb",), "lambda_gluing", 1, "ambient bivector family does not glue "
     "on ({at[1]}, {at[0]})"),
    (("hilb", "exthilb"), "ideal", 0, "family is not a bracket-ideal family "
     "on chart {at} at order {order}"),
    (("hilb", "exthilb"), "gluing", 0, "family ideals do not glue on overlap "
     "({at[0]}, {at[1]}) at order {order}"),
)


def _canonical_class(kind, desc, phi, lam, m):
    """Obstruction class of the canonical liftings of a degree-m family: the
    certified total cochain of the family's residuals at order m + 1
    (`deformation.certify_cocycle`). The family itself carries any shift of
    the ideal generators or bivectors (`artin_obstruction`)."""
    residuals = _residuals(kind, desc.submanifold, desc.manifold, phi, lam, m)
    for kinds, key, extra, message in _BELOW_ORDER:
        if kind not in kinds:
            continue
        for at, _, ser in residual_series(residuals[key]):
            low = ser.truncate(m + extra)
            if not low.is_zero():
                raise InvalidDeformation(message.format(
                    at=at, order=low.min_order()))
    return certify_cocycle(desc, residuals, m + 1, [(m + 1,)])


# ----------------------------------------------------------------------
# Liftability
# ----------------------------------------------------------------------

# Row labels of the liftability equations, by (cochain part, chart or
# overlap).
ARTIN_ROWS = {("amb", "chart"): "amb", ("nor", "chart"): "nabla",
              ("amb", "overlap"): "ambcech", ("nor", "overlap"): "cech"}


def _decide_liftable(atoms, system, total):
    """Solve total_coboundary(unknowns) = total over the monomial unknowns
    `atoms`, the unknowns of `system`."""
    sol, unreached, witness = system.solve(total)
    if unreached is not None:
        return False, f"no unknown reaches equation row {unreached}", None
    if sol is None:
        where = witness if witness is not None else "unknown"
        return False, f"inconsistent equation row {where}", None
    solution = {atom: v for atom, v in zip(atoms, sol) if v}
    return True, None, solution


# ----------------------------------------------------------------------
# Lifting-choice independence
# ----------------------------------------------------------------------

def _default_perturbation(kind, S, manifold, seed: int):
    """Deterministic nonzero shifts of every lifting choice."""
    space = manifold.space
    perturb = {}
    if kind in ("hilb", "exthilb"):
        A = {}
        for ci, name in enumerate(S.present_charts()):
            cvars = space.chart(name).vars
            tang = S.tangential[name]
            rows_A = []
            for a in range(S.codim):
                c = seed + 2 * ci + 3 * a + 1
                if tang:
                    base = LaurentPoly.variable(cvars, tang[0])
                else:
                    base = LaurentPoly.const(cvars, 1)
                rows_A.append(base * LaurentPoly.const(cvars, c))
            A[name] = rows_A
        perturb["A"] = A
    if kind in ("def", "exthilb"):
        D = {}
        for ci, name in enumerate(space.chart_names):
            cvars = space.chart(name).vars
            if len(cvars) < 2:
                continue
            c = seed + ci + 2
            D[name] = Polyvector.monomial(
                cvars, (0, 1), LaurentPoly.const(cvars, c))
        perturb["D"] = D
    return perturb


# ----------------------------------------------------------------------
# Top-level entry point
# ----------------------------------------------------------------------

def artin_obstruction(kind: str, *, state: DeformationState | None = None,
                      manifold: PoissonManifold | None = None,
                      lam: dict | None = None, order: int | None = None,
                      bound: int = 2, amb_bound: int | None = None,
                      perturb: int | None = None) -> ArtinReport:
    """Canonical obstruction class of a one-parameter family at its next
    extension step, with exact closedness certificates and a bounded-degree
    liftability decision.

    ``state`` supplies the family for the submanifold functors; ``manifold``,
    ``lam`` and ``order`` supply it for the ambient one. When ``perturb`` is
    an integer seed, every lifting choice is additionally shifted by explicit
    nonzero data, the class is recomputed, and the difference is checked to be
    exactly the coboundary of the shifts; the liftability verdicts must agree.
    """
    if kind not in FUNCTORS:
        raise InconsistentData(f"unknown functor kind {kind!r}")
    if amb_bound is None:
        amb_bound = bound + 2
    S, M, phi, lam_map, m = _family_pieces(kind, state, manifold, lam, order)
    desc = _descriptor(kind, S, M)
    cls = _canonical_class(kind, desc, phi, lam_map, m)
    atoms = _unknowns(desc, bound, amb_bound)
    system = CoboundarySystem(desc, atoms, ARTIN_ROWS)
    liftable, witness, solution = _decide_liftable(atoms, system,
                                                   cls.totals[(m + 1,)])
    invariance = None
    perturbed = None
    if perturb is not None:
        shifts = _default_perturbation(kind, S, M, int(perturb))
        # the liftings move by (D, -A), the class by its total coboundary
        shift = {}
        if "D" in shifts:
            shift["amb"] = shifts["D"]
        if "A" in shifts:
            shift["nor"] = {name: [Polyvector.from_function(-f) for f in A]
                            for name, A in shifts["A"].items()}
        perturbed = _canonical_class(
            kind, desc, *add_direction(phi, lam_map, (m + 1,), shift), m)
        rows = system.rows(cls.totals[(m + 1,)])
        p_rows = system.rows(perturbed.totals[(m + 1,)])
        moved = {key: v for key in rows.keys() | p_rows.keys()
                 if (v := rows.get(key, 0) - p_rows.get(key, 0))}
        identities = moved == system.rows(total_coboundary(desc, shift))
        p_liftable, _, _ = _decide_liftable(atoms, system,
                                            perturbed.totals[(m + 1,)])
        invariance = {
            "identities": identities,
            "certificates": perturbed.certificates,
            "same_verdict": p_liftable == liftable,
        }
        if not identities:
            raise ClosednessViolation(
                "perturbed liftings moved the class by a non-coboundary")
        if p_liftable != liftable:
            raise InconsistentData(
                "perturbed liftings changed the liftability verdict")
    return ArtinReport(kind, m, cls, liftable, witness, solution, invariance,
                       perturbed)
