"""Small-extension obstruction calculus for the three deformation functors.

Given a family defined over a truncated one-parameter base, this module
computes the canonical obstruction class blocking its extension one order
further. The class is a degree-one cochain of the Cech total complex of the
functor's controlling complex (see `complexes.total_coboundary`): its chart
part is ``ambient`` and ``normal``, its overlap part ``ambient_cech`` and
``normal_cech``. Its closedness certificates are `complexes.total_closedness`.
The class lifts when it is the total coboundary of bounded-degree monomial
unknowns (`complexes.monomial_atoms`). That is one exact linear solve,
`complexes.solve_total`, on the rows `complexes.total_rows` gives under
`ARTIN_ROWS`, the same system the solver's order step solves under its own
labels; its columns are built once per call. A different choice of lifting
data must move the class by exactly the total coboundary of that choice.

Three functors are covered:

* ``"def"``     — deformations of the ambient Poisson bivector alone;
* ``"hilb"``    — deformations of the submanifold inside a fixed (possibly
                  parameter-dependent) ambient Poisson structure;
* ``"exthilb"`` — simultaneous deformations of the pair.

The class has up to four components, stored chartwise:

* ``ambient``       — per chart, half the failure of the extended bivector to
                      square to zero (a trivector);
* ``normal``        — per present chart, minus the restricted failure of the
                      moved ideal to be a bracket ideal (a tuple of vector
                      fields along the submanifold);
* ``ambient_cech``  — per ordered overlap, minus the failure of the extended
                      bivectors to glue (a bivector on the first chart);
* ``normal_cech``   — per ordered overlap, the failure of the moved ideals to
                      agree (a tuple of functions, expressed on the first
                      chart along the submanifold).

An independent first-order tangent-space computation by direct epsilon
linearisation is provided for cross-checking the cohomology engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (atom_cochain, build_complex, h0_complex,
                         monomial_atoms, solve_total, total_closedness,
                         total_coboundary, total_rows)
from .deformation import (DeformationProblem, DeformationState,
                          add_direction, gluing_mismatch, ideal_residual,
                          jacobi_residual, lambda_gluing_mismatch,
                          series_schouten)
from .errors import (ClosednessViolation, InconsistentData, InvalidDeformation,
                     ParameterMismatch)
from .geometry import PoissonManifold, SubmanifoldData
from .linalg import nullspace
from .polyvector import Polyvector, restrict
from .symbolic import LaurentPoly, TruncatedSeries

FUNCTORS = ("def", "hilb", "exthilb")


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

def _recut(ser: TruncatedSeries, cutoff: int) -> TruncatedSeries:
    """Same series with a different truncation cutoff."""
    return TruncatedSeries(ser.params, cutoff, ser.terms)


def _scale_pv(pv: Polyvector, f: LaurentPoly) -> Polyvector:
    return pv.map_coefficients(lambda c: c * f)


def _vec_entries(obj):
    """Flatten a function or polyvector into ((frame, exponent), value)."""
    if isinstance(obj, LaurentPoly):
        for e, c in obj.terms.items():
            yield ((), e), c
    else:
        for idx, coeff in obj.terms.items():
            for e, c in coeff.terms.items():
                yield (idx, e), c


# ----------------------------------------------------------------------
# Class container
# ----------------------------------------------------------------------

@dataclass
class ObstructionClass:
    """Canonical obstruction class of a family at one extension step."""
    kind: str
    order: int
    ambient: dict | None = None        # chart -> Polyvector (degree 3)
    normal: dict | None = None         # chart -> [Polyvector deg 1]*r
    ambient_cech: dict | None = None   # (i, k) -> Polyvector (degree 2)
    normal_cech: dict | None = None    # (i, k) -> [LaurentPoly]*r on chart i

    def components(self):
        out = {}
        for label in ("ambient", "normal", "ambient_cech", "normal_cech"):
            val = getattr(self, label)
            if val is not None:
                out[label] = val
        return out

    def is_zero(self) -> bool:
        for label, data in self.components().items():
            for val in data.values():
                items = val if isinstance(val, (list, tuple)) else [val]
                if any(not x.is_zero() for x in items):
                    return False
        return True

    def minus(self, other: "ObstructionClass") -> dict:
        """Componentwise difference self - other (same-shape dictionaries)."""
        diff = {}
        for label, data in self.components().items():
            odata = getattr(other, label)
            block = {}
            for key, val in data.items():
                oval = odata[key]
                if isinstance(val, (list, tuple)):
                    block[key] = [a - b for a, b in zip(val, oval)]
                else:
                    block[key] = val - oval
            diff[label] = block
        return diff


@dataclass
class ArtinReport:
    kind: str
    order: int
    cls: ObstructionClass
    certificates: dict
    liftable: bool
    witness: str | None
    solution: dict | None
    invariance: dict | None = None
    perturbed: ObstructionClass | None = None


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
    """The controlling complex of a functor."""
    if kind == "def":
        return build_complex("bivector", manifold=manifold)
    return build_complex("normal" if kind == "hilb" else "extended",
                         submanifold=S)


def _unknowns(desc, bound: int, amb_bound: int) -> list:
    """Monomial unknowns of the functor's degree-zero cochains: normal ones
    of degree <= bound, ambient bivectors of degree <= amb_bound."""
    return [atom for part in desc.parts for atom in monomial_atoms(
        desc, part, 0, desc.part_charts(part),
        bound if part == "nor" else amb_bound)]


# ----------------------------------------------------------------------
# First order: independent epsilon-linearisation path
# ----------------------------------------------------------------------

_EPS = ("_eps",)


def first_order_by_enumeration(kind: str, *,
                               manifold: PoissonManifold | None = None,
                               submanifold: SubmanifoldData | None = None,
                               bound: int = 2, amb_bound: int | None = None):
    """Tangent space by brute linearisation, independent of the cohomology
    engines: enumerate bounded-degree monomial directions, impose first-order
    validity of the perturbed family, and return the kernel.

    Works coefficient-exactly with a nilpotent square-zero parameter; the
    reported dimension equals the engine's once the degree bound covers the
    engine basis.
    """
    if kind not in FUNCTORS:
        raise InconsistentData(f"unknown functor kind {kind!r}")
    if kind != "def" and submanifold is None:
        raise InconsistentData(f"functor {kind!r} needs the submanifold")
    if manifold is None:
        if submanifold is None:
            raise InconsistentData("ambient functor needs the manifold")
        manifold = submanifold.manifold
    if amb_bound is None:
        amb_bound = bound + 2
    space = manifold.space
    desc = _descriptor(kind, submanifold, manifold)
    atoms = _unknowns(desc, bound, amb_bound)
    columns = []
    for atom in atoms:
        entries = {}
        phi = lam = None
        part, name = atom[:2]
        entry = atom_cochain(desc, 0, atom)[part][name]
        if part == "nor":
            phi = {c: [TruncatedSeries.zero(_EPS, 1)
                       for _ in range(submanifold.codim)]
                   for c in submanifold.present_charts()}
            phi[name][atom[2]] = TruncatedSeries(
                _EPS, 1, {(1,): entry[atom[2]].as_function()})
        else:
            lam = {c: TruncatedSeries.const(_EPS, 1, manifold.bivector(c))
                   for c in space.chart_names}
            lam[name] = lam[name] + TruncatedSeries(_EPS, 1, {(1,): entry})
        if kind in ("def", "exthilb"):
            full_lam = lam or {name: TruncatedSeries.const(
                _EPS, 1, manifold.bivector(name)) for name in space.chart_names}
            for name in space.chart_names:
                jac = series_schouten(full_lam[name], full_lam[name])
                lin = jac.coefficient((1,))
                if lin is not None:
                    for sub, c in _vec_entries(lin):
                        entries[("jac", name) + sub] = c
            for (i, k) in space.overlap_pairs():
                if (k, i) not in space.transitions:
                    continue
                moved = full_lam[k].map(lambda pv: space.pushforward(pv, k, i))
                lin = (full_lam[i] - moved).coefficient((1,))
                if lin is not None:
                    for sub, c in _vec_entries(lin):
                        entries[("biglue", i, k) + sub] = c
        if kind in ("hilb", "exthilb"):
            S = submanifold
            problem = DeformationProblem(S, _EPS, 1, bound, mode="fixed")
            full_phi = phi or {name: [TruncatedSeries.zero(_EPS, 1)
                                      for _ in range(S.codim)]
                               for name in S.present_charts()}
            full_lam = lam or {name: TruncatedSeries.const(
                _EPS, 1, manifold.bivector(name)) for name in space.chart_names}
            res = ideal_residual(problem, full_phi, full_lam)
            for name, rows in res.items():
                for a, row in enumerate(rows):
                    lin = row.coefficient((1,))
                    if lin is not None:
                        for sub, c in _vec_entries(lin):
                            entries[("ideal", name, a) + sub] = c
            mism = gluing_mismatch(problem, full_phi)
            for pair, rows in mism.items():
                for a, row in enumerate(rows):
                    lin = row.coefficient((1,))
                    if lin is not None:
                        for sub, c in _vec_entries(lin):
                            entries[("glue", pair, a) + sub] = c
        columns.append(entries)
    kernel = nullspace(columns)
    return {"dimension": len(kernel), "atoms": atoms, "kernel": kernel}


# ----------------------------------------------------------------------
# Canonical obstruction class of a family at one extension step
# ----------------------------------------------------------------------

def _family_pieces(kind, state, manifold, lam, order):
    """Normalise input: return (S, manifold, phi, lam, m) with single-parameter
    series recut to cutoff m + 1."""
    if kind in ("hilb", "exthilb"):
        if state is None:
            raise InconsistentData(f"functor {kind!r} needs a family state")
        S = state.problem.submanifold
        M = S.manifold
        if len(state.params) != 1:
            raise ParameterMismatch(
                "obstruction calculus works over a one-parameter base")
        m = state.order if order is None else order
        cut = m + 1
        phi = {name: [_recut(s, cut) for s in rows]
               for name, rows in state.phi.items()}
        lam_map = {name: _recut(s, cut) for name, s in state.lam.items()}
        return S, M, phi, lam_map, m
    if manifold is None or lam is None:
        raise InconsistentData(
            "ambient functor needs the manifold and the bivector family")
    if order is None:
        raise InconsistentData("ambient functor needs the family order")
    params = next(iter(lam.values())).params
    if len(params) != 1:
        raise ParameterMismatch(
            "obstruction calculus works over a one-parameter base")
    for name in manifold.space.chart_names:
        if name not in lam:
            raise InconsistentData(f"no bivector family on chart {name}")
        if lam[name].order_zero() != manifold.bivector(name):
            raise InvalidDeformation(
                f"family on chart {name} does not start at the ambient "
                "bivector")
    lam_map = {name: _recut(s, order + 1) for name, s in lam.items()}
    return None, manifold, {}, lam_map, order


def _ambient_components(space, lam_map, m):
    """Per-chart trivector failures (half [Lambda, Lambda]) and per-overlap
    gluing failures (minus `lambda_gluing_mismatch`) at order m + 1 of the
    canonical extension-by-zero of the bivector family."""
    exp = (m + 1,)
    jacobi = jacobi_residual(lam_map)
    half_pi = {}
    for name in space.chart_names:
        low = jacobi[name].truncate(m)
        if not low.is_zero():
            raise InvalidDeformation(
                f"bivector family on chart {name} fails its square-zero "
                f"identity at order {low.min_order()}")
        half_pi[name] = jacobi[name].coefficient(
            exp, Polyvector.zero(space.chart(name).vars, 3)) * Fraction(1, 2)
    mismatch = lambda_gluing_mismatch(space, lam_map)
    ambient_cech = {}
    for (k, i), ser in mismatch.items():
        if not ser.truncate(m).is_zero():
            raise InvalidDeformation(
                f"bivector family does not glue over the base on overlap "
                f"({i}, {k})")
        ambient_cech[(i, k)] = ser.coefficient(
            exp, Polyvector.zero(space.chart(i).vars, 2))
    return half_pi, ambient_cech


def _normal_components(S, problem, phi, lam_map, m, B):
    """Per-chart vector-field failures (minus, restricted) and per-overlap
    ideal mismatches of the canonical liftings-by-zero of the family, with
    the structure-field shifts ``B`` when given."""
    space = S.space
    exp = (m + 1,)
    res = ideal_residual(problem, phi, lam_map)
    minus_normal = {}
    for name, rows in res.items():
        cvars = space.chart(name).vars
        w = S.normal[name]
        out = []
        for a, row in enumerate(rows):
            low = row.truncate(m)
            if not low.is_zero():
                raise InvalidDeformation(
                    f"family is not a bracket-ideal family on chart {name} "
                    f"at order {low.min_order()}")
            G = row.coefficient(exp, Polyvector.zero(cvars, 1))
            if B is not None and name in B:
                for b in range(S.codim):
                    wb = LaurentPoly.variable(cvars, w[b])
                    G = G - _scale_pv(B[name][a][b], wb)
            out.append(restrict(-G, w))
        minus_normal[name] = out
    mism = gluing_mismatch(problem, phi)
    normal_cech = {}
    for (i, k), rows in mism.items():
        out = []
        for a, row in enumerate(rows):
            low = row.truncate(m)
            if not low.is_zero():
                raise InvalidDeformation(
                    f"family ideals do not glue on overlap ({i}, {k}) at "
                    f"order {low.min_order()}")
            h_on_k = -row.coefficient(exp, LaurentPoly.zero(
                space.chart(k).vars))
            out.append(S.substitute_tangential(h_on_k, k, i))
        normal_cech[(i, k)] = out
    return minus_normal, normal_cech


def _canonical_class(kind, S, manifold, phi, lam_map, m, B=None):
    """Obstruction class of the canonical liftings of a degree-m family,
    optionally with per-chart structure-field shifts ``B`` (matrices of
    vector fields) at the new order. The family itself carries any shift of
    the ideal generators or bivectors (`artin_obstruction`)."""
    space = manifold.space
    cut = m + 1
    cls = ObstructionClass(kind, m)
    if kind in ("def", "exthilb"):
        cls.ambient, cls.ambient_cech = _ambient_components(space, lam_map, m)
    if kind == "hilb":
        jacobi = jacobi_residual(lam_map)
        for name in space.chart_names:
            if not jacobi[name].is_zero():
                raise InvalidDeformation(
                    f"ambient bivector family on chart {name} fails its "
                    "square-zero identity")
        for (k, i), ser in lambda_gluing_mismatch(space, lam_map).items():
            if not ser.is_zero():
                raise InvalidDeformation(
                    f"ambient bivector family does not glue on ({i}, {k})")
    if kind in ("hilb", "exthilb"):
        params = next(iter(lam_map.values())).params
        problem = DeformationProblem(S, params, cut, 0, mode="fixed")
        cls.normal, cls.normal_cech = _normal_components(
            S, problem, phi, lam_map, m, B)
    return cls


# ----------------------------------------------------------------------
# The class in the total complex: certificates and liftability
# ----------------------------------------------------------------------

def _total(cls: ObstructionClass) -> tuple:
    """The class as a degree-one total cochain (chart part, overlap part)."""
    chart, overlap = {}, {}
    if cls.ambient is not None:
        chart["amb"], overlap["amb"] = cls.ambient, cls.ambient_cech
    if cls.normal is not None:
        chart["nor"] = cls.normal
        overlap["nor"] = {pair: [Polyvector.from_function(f) for f in rows]
                          for pair, rows in cls.normal_cech.items()}
    return chart, overlap


# Row labels of the liftability equations, by (cochain part, chart or
# overlap).
ARTIN_ROWS = {("amb", "chart"): "amb", ("nor", "chart"): "nabla",
              ("amb", "overlap"): "ambcech", ("nor", "overlap"): "cech"}


def _decide_liftable(atoms, columns, cls):
    """Solve total_coboundary(unknowns) = class over the monomial unknowns
    `atoms`, whose `total_rows` are `columns`."""
    sol, unreached, witness = solve_total(
        columns, total_rows(*_total(cls), ARTIN_ROWS))
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
        B = {}
        for ci, name in enumerate(S.present_charts()):
            cvars = space.chart(name).vars
            tang = S.tangential[name]
            rows_A = []
            rows_B = []
            for a in range(S.codim):
                c = Fraction(seed + 2 * ci + 3 * a + 1)
                if tang:
                    base = LaurentPoly.variable(cvars, tang[0])
                else:
                    base = LaurentPoly.const(cvars, 1)
                rows_A.append(base * LaurentPoly.const(cvars, c))
                rows_B.append([Polyvector.monomial(
                    cvars, (0,), LaurentPoly.const(cvars, c + b + 1))
                    for b in range(S.codim)])
            A[name] = rows_A
            B[name] = rows_B
        perturb["A"] = A
        perturb["B"] = B
    if kind in ("def", "exthilb"):
        D = {}
        for ci, name in enumerate(space.chart_names):
            cvars = space.chart(name).vars
            if len(cvars) < 2:
                continue
            c = Fraction(seed + ci + 2)
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
    cls = _canonical_class(kind, S, M, phi, lam_map, m)
    certs = total_closedness(desc, *_total(cls))
    pairs = M.space.overlap_pairs()
    atoms = _unknowns(desc, bound, amb_bound)
    columns = [total_rows(*total_coboundary(
        desc, atom_cochain(desc, 0, atom), pairs), ARTIN_ROWS)
        for atom in atoms]
    liftable, witness, solution = _decide_liftable(atoms, columns, cls)
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
            kind, S, M, *add_direction(phi, lam_map, (m + 1,), shift), m,
            B=shifts.get("B"))
        pert_certs = total_closedness(desc, *_total(perturbed))
        diff = ObstructionClass(kind, m, **cls.minus(perturbed))
        identities = total_rows(*_total(diff), ARTIN_ROWS) == total_rows(
            *total_coboundary(desc, shift, pairs), ARTIN_ROWS)
        p_liftable, _, _ = _decide_liftable(atoms, columns, perturbed)
        invariance = {
            "identities": identities,
            "certificates": pert_certs,
            "same_verdict": p_liftable == liftable,
        }
        if not identities:
            raise ClosednessViolation(
                "perturbed liftings moved the class by a non-coboundary")
        if p_liftable != liftable:
            raise InconsistentData(
                "perturbed liftings changed the liftability verdict")
    return ArtinReport(kind, m, cls, certs, liftable, witness, solution,
                       invariance, perturbed)
