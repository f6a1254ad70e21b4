"""Shared fixtures: the standard worked geometries and the expensive solver
runs, computed once per session and reused by unit and acceptance tests;
and the oracles the tests share."""

import os

import pytest

from poissondef.artin import (ARTIN_ROWS, _descriptor, _residuals, _unknowns,
                              artin_obstruction)
from poissondef.complexes import (_padded, atom_cochain, chunk_entries,
                                  cochain_is_zero, monomial_atoms,
                                  total_coboundary, total_rows)
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    add_direction, residual_series,
                                    run_solver, verify_family)
from poissondef.errors import InconsistentData
from poissondef.geometry import (ABSENT, Chart, ChartedSpace, PoissonManifold,
                                 affine_space, extract_submanifold,
                                 hirzebruch, projective_space)
from poissondef.linalg import nullspace
from poissondef.polyvector import Polyvector, _ruled, _sort_sign, _wedge_rule
from poissondef.symbolic import LaurentPoly, TruncatedSeries, _derivative

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "src", "poissondef",
                        "examples")


def example(name: str) -> str:
    return os.path.join(EXAMPLES, name)


# ----------------------------------------------------------------------
# Geometries
# ----------------------------------------------------------------------

def build_c3():
    """Affine 3-space with structure x1*x3 d/x1^d/x2; line x1 = x2 = 0."""
    space = affine_space(3)
    v = space.chart("U").vars
    lam = pv_monomial(
        v, (0, 1),
        LaurentPoly.variable(v, "x1") * LaurentPoly.variable(v, "x3"))
    man = PoissonManifold.from_chart_data(space, {"U": lam})
    sub = extract_submanifold(man, {"U": ["x1", "x2"]})
    return man, sub


def build_c2():
    """Affine plane with structure x1 d/x1^d/x2; divisor x1 = 0."""
    space = affine_space(2)
    v = space.chart("U").vars
    lam = pv_monomial(v, (0, 1), LaurentPoly.variable(v, "x1"))
    man = PoissonManifold.from_chart_data(space, {"U": lam})
    sub = extract_submanifold(man, {"U": ["x1"]})
    return man, sub


def build_p3():
    space = projective_space(3)
    v = space.chart("U0").vars
    lam = pv_monomial(v, (0, 1), LaurentPoly.variable(v, "z1"))
    return PoissonManifold.from_chart_data(space, {"U0": lam})


def build_p2():
    space = projective_space(2)
    v = space.chart("U0").vars
    lam = pv_monomial(v, (0, 1), LaurentPoly.variable(v, "z1"))
    return PoissonManifold.from_chart_data(space, {"U0": lam})


def build_fm_section(m: int, structured: bool):
    """Ruled surface with the base section xi = 0; optionally the standard
    structure xi d/z^d/xi (only integrable for m <= 1)."""
    space = hirzebruch(m)
    if structured:
        v = space.chart("U1").vars
        lam = pv_monomial(v, (0, 1), LaurentPoly.variable(v, "xi"))
        man = PoissonManifold.from_chart_data(space, {"U1": lam})
    else:
        man = PoissonManifold(space, {})
    sub = extract_submanifold(man, {"U1": ["xi"], "U2": ["xip"],
                                    "U3": ABSENT, "U4": ABSENT})
    return man, sub


def prescribed_instability(m: int, degree: int) -> DeformationProblem:
    """The two prescribed-structure counterexample problems: the family
    (xi - t z) d/z^d/xi on the untwisted surface, (z^2 xi + t z) d/z^d/xi on
    the doubly twisted one."""
    space = hirzebruch(m)
    v = space.chart("U1").vars
    z = LaurentPoly.variable(v, "z")
    xi = LaurentPoly.variable(v, "xi")
    if m == 0:
        base, bump = xi, -z
    elif m == 2:
        base, bump = z * z * xi, z
    else:
        raise ValueError(m)
    lam0 = pv_monomial(v, (0, 1), base)
    man = PoissonManifold.from_chart_data(space, {"U1": lam0})
    sub = extract_submanifold(man, {"U1": ["xi"], "U2": ["xip"],
                                    "U3": ABSENT, "U4": ABSENT})
    lam1 = pv_monomial(v, (0, 1), bump)
    pres = {}
    for name in space.chart_names:
        pres[name] = (TruncatedSeries.const(("t",), 3, man.bivector(name))
                      + TruncatedSeries(("t",), 3,
                                        {(1,): space.pushforward(lam1, "U1",
                                                                 name)}))
    return DeformationProblem(sub, ("t",), order=3, degree=degree,
                              mode="prescribed", prescribed=pres)


def truncate_state(state: DeformationState, order: int) -> DeformationState:
    """The same family viewed as exact only up to the given order."""
    phi = {name: [TruncatedSeries(s.params, s.cutoff,
                                  {e: c for e, c in s.terms.items()
                                   if sum(e) <= order})
                  for s in rows]
           for name, rows in state.phi.items()}
    lam = {name: TruncatedSeries(s.params, s.cutoff,
                                 {e: c for e, c in s.terms.items()
                                  if sum(e) <= order})
           for name, s in state.lam.items()}
    return DeformationState(state.problem, order, phi, lam)


# ----------------------------------------------------------------------
# Shared oracles
# ----------------------------------------------------------------------

def pv_monomial(vars, indices, coeff: LaurentPoly) -> Polyvector:
    """coeff * d/v_{i1} ^ ... with arbitrary index order (sign folded in)."""
    indices = tuple(indices)
    idx, sign = _sort_sign(indices)
    if sign == 0:
        return Polyvector(vars, len(indices))
    return Polyvector(vars, len(idx), {idx: coeff * sign})


def series_value(s: TruncatedSeries) -> tuple:
    """A series as a value to compare: its parameters and terms. A series
    stores no zero coefficient, so equal values are equal series."""
    return s.params, s.terms


def product(a: ChartedSpace, b: ChartedSpace, name: str | None = None) -> ChartedSpace:
    """Product atlas: one chart per chart pair, transitions componentwise.
    The transport oracles' atlas with several variables per chart."""
    charts = []
    for ca in a.charts:
        for cb in b.charts:
            if set(ca.vars) & set(cb.vars):
                raise InconsistentData(
                    f"variable clash between factors: {ca.vars} vs {cb.vars}")
            charts.append(Chart(f"{ca.name}x{cb.name}", ca.vars + cb.vars))
    transitions = {}
    for ca in a.charts:
        for cb in b.charts:
            for da in a.charts:
                for db in b.charts:
                    if (ca.name, cb.name) == (da.name, db.name):
                        continue
                    if ca.name != da.name and (ca.name, da.name) not in a.transitions:
                        continue
                    if cb.name != db.name and (cb.name, db.name) not in b.transitions:
                        continue
                    dst_vars = da.vars + db.vars
                    tmap = {}
                    for v in ca.vars:
                        expr = (LaurentPoly.variable(da.vars, v) if ca.name == da.name
                                else a.transitions[(ca.name, da.name)][v])
                        tmap[v] = expr.with_vars(dst_vars)
                    for v in cb.vars:
                        expr = (LaurentPoly.variable(db.vars, v) if cb.name == db.name
                                else b.transitions[(cb.name, db.name)][v])
                        tmap[v] = expr.with_vars(dst_vars)
                    transitions[(f"{ca.name}x{cb.name}", f"{da.name}x{db.name}")] = tmap
    return ChartedSpace(name or f"{a.name}x{b.name}", charts, transitions)


def derivative(f: LaurentPoly, name: str) -> LaurentPoly:
    """d f / d name: `symbolic._derivative`, the derivative the core takes
    of raw terms, on a polynomial."""
    return LaurentPoly._valid(f.vars,
                              _derivative(f.terms, f.vars.index(name)))


def wedge(a: Polyvector, b: Polyvector) -> Polyvector:
    """a ^ b: `polyvector._wedge_rule`, the one wedge of the differential
    and the tensor certificate, applied to a's raw terms by `_ruled`."""
    a._check(b, same_degree=False)
    t = {J: g.terms for J, g in b.terms.items()}
    return Polyvector._from_raw(a.vars, a.degree + b.degree, _ruled(
        {I: f.terms for I, f in a.terms.items()}, {}, None,
        lambda I: _wedge_rule(I, t, 1)).items())


def monomial_probes(desc, p: int, degree: int):
    """Single-monomial degree-p cochains of coefficient degree <= degree,
    zero on every other chart, as `total_closedness` reads every chart."""
    for part in desc.parts:
        for atom in monomial_atoms(desc, part, p, desc.part_charts(part),
                                   degree):
            yield _padded(desc, p, atom)


def assert_square_zero(desc, p: int, degree: int):
    for probe in monomial_probes(desc, p, degree):
        twice = desc.differential(desc.differential(probe, p), p + 1)
        if not cochain_is_zero(twice):
            raise InconsistentData(
                f"differential does not square to zero on probe {probe}")


_EPS = ("_eps",)


def first_order_by_enumeration(kind: str, *, manifold=None, submanifold=None,
                               bound: int = 2, amb_bound: int | None = None):
    """Tangent space by brute linearisation, independent of the cohomology
    engines: enumerate bounded-degree monomial directions, impose first-order
    validity of the perturbed family, and return the kernel. Each
    direction's family is built with `add_direction`, and its equations are
    the order-one coefficients of the family's residuals, read directly.

    Works coefficient-exactly with a nilpotent square-zero parameter; the
    reported dimension equals the engine's once the degree bound covers the
    engine basis.
    """
    manifold = manifold or submanifold.manifold
    if amb_bound is None:
        amb_bound = bound + 2
    desc = _descriptor(kind, submanifold, manifold)
    atoms = _unknowns(desc, bound, amb_bound)
    phi = {} if submanifold is None else {
        name: [TruncatedSeries.zero(_EPS, 1)] * submanifold.codim
        for name in submanifold.present_charts()}
    lam = {name: TruncatedSeries.const(_EPS, 1, manifold.bivector(name))
           for name in manifold.space.chart_names}
    columns = []
    for atom in atoms:
        residuals = _residuals(kind, submanifold, manifold, *add_direction(
            phi, lam, (1,), atom_cochain(desc, 0, atom)), 0)
        columns.append({(key, at, a) + sub: c
                        for key, per in residuals.items()
                        for at, a, ser in residual_series(per)
                        for coeff in ser.homogeneous(1).values()
                        for sub, c in chunk_entries("amb", coeff if isinstance(
                            coeff, Polyvector) else Polyvector.from_function(
                                coeff))})
    kernel = nullspace(columns)
    return {"dimension": len(kernel), "atoms": atoms, "kernel": kernel}


def lifting_shift(kind: str, S, manifold, seed: int) -> dict:
    """Deterministic non-zero shifts of every lifting choice, as a
    degree-zero cochain of the functor's complex. For hilb and exthilb,
    normal slot a of the ci-th present chart of S moves by -c times its
    first tangential variable (1 where it has none), c = seed + 2 ci + 3 a
    + 1; for def and exthilb, the bivector of the ci-th chart with two or
    more variables by (seed + ci + 2) d/x1 ^ d/x2."""
    space = manifold.space
    shift = {}
    if kind != "def":
        shift["nor"] = {}
        for ci, name in enumerate(S.present_charts()):
            cvars = space.chart(name).vars
            tang = S.tangential[name]
            base = (LaurentPoly.variable(cvars, tang[0]) if tang
                    else LaurentPoly.const(cvars, 1))
            shift["nor"][name] = [Polyvector.from_function(-(
                base * LaurentPoly.const(cvars, seed + 2 * ci + 3 * a + 1)))
                for a in range(S.codim)]
    if kind != "hilb":
        shift["amb"] = {}
        for ci, name in enumerate(space.chart_names):
            cvars = space.chart(name).vars
            if len(cvars) >= 2:
                shift["amb"][name] = pv_monomial(
                    cvars, (0, 1), LaurentPoly.const(cvars, seed + ci + 2))
    return shift


def shifted_obstruction(kind: str, seed: int, *, state=None, manifold=None,
                        lam=None, order=None, bound: int = 2) -> tuple:
    """`artin_obstruction` of a family and of the same family with its
    lifting choices shifted by `lifting_shift` at the new order, built by
    `add_direction`. Lifting-choice invariance is asserted: the class moves
    by exactly the total coboundary of the shift, read as rows under
    `ARTIN_ROWS`, and the liftability verdict stays. Returns both
    reports."""
    report = artin_obstruction(kind, state=state, manifold=manifold, lam=lam,
                               order=order, bound=bound)
    m = report.order
    if kind == "def":
        S, phi = None, {}
    else:
        S = state.problem.submanifold
        manifold = S.manifold
        phi, lam = state.phi, state.lam
    shift = lifting_shift(kind, S, manifold, seed)
    phi, lam = add_direction(phi, lam, (m + 1,), shift)
    if kind == "def":
        shifted = artin_obstruction(kind, manifold=manifold, lam=lam,
                                    order=m, bound=bound)
    else:
        shifted = artin_obstruction(kind, state=DeformationState(
            state.problem, m, phi, lam), bound=bound)
    rows = total_rows(*report.cls.totals[(m + 1,)], ARTIN_ROWS)
    new = total_rows(*shifted.cls.totals[(m + 1,)], ARTIN_ROWS)
    moved = {key: v for key in rows.keys() | new.keys()
             if (v := rows.get(key, 0) - new.get(key, 0))}
    assert moved == total_rows(*total_coboundary(
        _descriptor(kind, S, manifold), shift), ARTIN_ROWS)
    assert shifted.liftable == report.liftable
    return report, shifted


# ----------------------------------------------------------------------
# Session fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def c3():
    return build_c3()


@pytest.fixture(scope="session")
def c2():
    return build_c2()


@pytest.fixture(scope="session")
def p3_manifold():
    return build_p3()


@pytest.fixture(scope="session")
def p3_hyperplane_sub(p3_manifold):
    return extract_submanifold(p3_manifold, {"U0": ["z3"], "U1": ["z3"],
                                             "U2": ["z3"], "U3": ABSENT})


@pytest.fixture(scope="session")
def p3_line_sub(p3_manifold):
    return extract_submanifold(p3_manifold, {"U0": ["z1", "z3"],
                                             "U2": ["z2", "z3"],
                                             "U1": ABSENT, "U3": ABSENT})


@pytest.fixture(scope="session")
def p2_manifold():
    return build_p2()


@pytest.fixture(scope="session")
def p2_curve_sub(p2_manifold):
    return extract_submanifold(p2_manifold, {"U0": ["z1"], "U1": ABSENT,
                                             "U2": ["z2"]})


@pytest.fixture(scope="session")
def hyperplane_result(p3_hyperplane_sub):
    prob = DeformationProblem(p3_hyperplane_sub, ("t",), order=4, degree=2,
                              mode="fixed")
    res = run_solver(prob)
    assert res.ok and res.verify["pass"]
    return res


@pytest.fixture(scope="session")
def line_result(p3_line_sub):
    prob = DeformationProblem(p3_line_sub, ("t1", "t2"), order=4, degree=2,
                              mode="fixed", seed=(1, 0))
    res = run_solver(prob)
    assert res.ok and res.verify["pass"]
    return res


@pytest.fixture(scope="session")
def p2_worked(p2_manifold, p2_curve_sub):
    """The extended two-parameter worked family, as written in the source
    material, together with its verification report."""
    space = p2_manifold.space
    U0 = space.chart("U0").vars
    U2 = space.chart("U2").vars
    z2 = LaurentPoly.variable(U0, "z2")
    one0 = LaurentPoly.const(U0, 1)
    params = ("t1", "t2")
    phi = {
        "U0": [TruncatedSeries(params, 3, {(1, 0): -z2, (0, 1): -one0})],
        "U2": [TruncatedSeries(params, 3,
                               {(1, 0): -LaurentPoly.const(U2, 1),
                                (0, 1): -LaurentPoly.variable(U2, "z1")})],
    }
    dir1 = pv_monomial(U0, (0, 1), z2)
    dir2 = pv_monomial(U0, (0, 1), one0)
    lam = {}
    for name in space.chart_names:
        lam[name] = (TruncatedSeries.const(params, 3,
                                           p2_manifold.bivector(name))
                     + TruncatedSeries(params, 3, {
                         (1, 0): space.pushforward(dir1, "U0", name),
                         (0, 1): space.pushforward(dir2, "U0", name)}))
    prob = DeformationProblem(p2_curve_sub, params, order=3, degree=2,
                              mode="extended")
    fam = DeformationState(prob, 3, phi, lam)
    report = verify_family(fam, 3)
    return {"problem": prob, "family": fam, "report": report,
            "directions": (dir1, dir2)}


@pytest.fixture(scope="session")
def instability_runs():
    """Both counterexample surfaces, each solved at degree bounds 1 and 4;
    the step solver itself escalates two degrees further, covering 1..6."""
    out = {}
    for m in (0, 2):
        for D in (1, 4):
            res = run_solver(prescribed_instability(m, D))
            assert not res.ok
            out[(m, D)] = res.obstructed
    return out


@pytest.fixture(scope="session")
def descriptor_family(c3, p3_hyperplane_sub, p3_line_sub, p2_curve_sub):
    """Every controlling complex exercised by the worked examples."""
    from poissondef.complexes import build_complex
    fam = {
        "c3_normal": build_complex("normal", submanifold=c3[1]),
        "p3_hyperplane_normal": build_complex("normal",
                                              submanifold=p3_hyperplane_sub),
        "p3_line_normal": build_complex("normal", submanifold=p3_line_sub),
        "p2_extended": build_complex("extended", submanifold=p2_curve_sub),
    }
    for m in range(6):
        man, _ = build_fm_section(m, structured=False)
        fam[f"f{m}_bivector"] = build_complex("bivector", manifold=man)
    for m, structured in [(0, True), (1, True), (3, False), (4, False),
                          (5, False)]:
        _, sec = build_fm_section(m, structured=structured)
        fam[f"f{m}_extended"] = build_complex("extended", submanifold=sec)
    return fam


@pytest.fixture(scope="session")
def square_zero_family(descriptor_family, c3, p3_hyperplane_sub,
                       p3_line_sub):
    """`descriptor_family` plus the extended complexes of the P3 hyperplane,
    the P3 line and the C3 line (c3_normal is the C3 line's normal
    complex)."""
    from poissondef.complexes import build_complex
    fam = dict(descriptor_family)
    for name, S in (("p3_hyperplane", p3_hyperplane_sub),
                    ("p3_line", p3_line_sub), ("c3_line", c3[1])):
        fam[f"{name}_extended"] = build_complex("extended", submanifold=S)
    return fam


@pytest.fixture(scope="session")
def h0_reports(descriptor_family):
    from poissondef.complexes import h0_complex
    return {name: h0_complex(desc) for name, desc in descriptor_family.items()}


def oracle_dim(descriptor, bound=None):
    """Degree-zero dimension by dense elimination in an independent matrix
    library: number of global sections minus the rank of the first
    differential on them."""
    import sympy

    from poissondef.complexes import cochain_vector_entries, global_sections
    space = global_sections(descriptor, bound)
    if not space.basis:
        return 0
    images = [dict(cochain_vector_entries(descriptor.differential(s, 0)))
              for s in space.basis]
    keys = sorted(set().union(*images))
    if not keys:
        return len(images)
    mat = sympy.Matrix([[col.get(k, 0) for col in images] for k in keys])
    return len(images) - mat.rank()
