"""The obstruction container against the ones it replaced.

The order step's obstruction and the small-ring class are one
`deformation.ObstructionCocycle`: per parameter monomial the total cochain
`residual_total` reads from a family's residuals, certified by
`certify_cocycle`. Before, the order step kept its cocycle as psi/G/Pi
blocks (`_degree_part`), the small-ring calculus kept an `ObstructionClass`
of four fields, and each had its own renderer. Those, the parent
`residual_total` (which did not restrict the normal chart part) and the
scalar series composition `gluing_mismatch` used are kept here verbatim as
oracles and compared with the new paths: on every obstructed solve and
every small-ring class the shipped examples reach, on an extended-mode
obstruction built by hand, and by hypothesis on random series.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import poissondef
from conftest import build_p3, truncate_state
from poissondef.artin import (FUNCTORS, _descriptor, _family_pieces,
                              _residuals, artin_obstruction)
from poissondef.cli import _render_class, _render_cocycle
from poissondef.complexes import _part_is_zero, total_closedness
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    Obstructed, _step_descriptor,
                                    obstruction_cocycle, run_solver,
                                    solve_order, subs_normal_pv_series)
from poissondef.dsl import (format_param_monomial, format_poly,
                            format_polyvector, parse)
from poissondef.errors import ToolkitError
from poissondef.geometry import ABSENT, extract_submanifold
from poissondef.polyvector import Polyvector, restrict
from poissondef.symbolic import LaurentPoly, TruncatedSeries, substitute

EXAMPLES = Path(poissondef.__file__).parent / "examples"


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------

def compose_scalar_series(phi: TruncatedSeries, assign: Mapping[str, object],
                          params, cutoff, target_vars) -> TruncatedSeries:
    """Evaluate a scalar-coefficient series at series/polynomial arguments.

    Each coefficient is substituted, the result re-expanded in the target
    parameters and multiplied by its original parameter monomial; carriers
    are coerced onto the target variable tuple.
    """
    out = TruncatedSeries.zero(params, cutoff)
    for te, coeff in phi.terms.items():
        sub = substitute(coeff, assign)
        if isinstance(sub, LaurentPoly):
            sub = TruncatedSeries.const(params, cutoff, sub.with_vars(target_vars))
        shifted = {}
        for e2, c2 in sub.terms.items():
            tot = tuple(x + y for x, y in zip(te, e2))
            if sum(tot) <= cutoff:
                shifted[tot] = c2.with_vars(target_vars)
        out = out + TruncatedSeries(params, cutoff, shifted)
    return out


@dataclass
class OldObstructionCocycle:
    order: int                     # the order being obstructed (m+1)
    mode: str
    psi: dict                      # (i,k) -> {texp: [LaurentPoly]*r} on chart k
    G: dict                        # chart -> {texp: [Polyvector deg 1]*r}
    Pi: dict = field(default_factory=dict)   # chart -> {texp: Polyvector deg 3}
    certificates: dict = field(default_factory=dict)

    def is_zero(self) -> bool:
        return (all(all(p.is_zero() for tup in d.values() for p in tup)
                    for d in self.psi.values())
                and all(all(v.is_zero() for tup in d.values() for v in tup)
                        for d in self.G.values())
                and all(all(v.is_zero() for v in d.values())
                        for d in self.Pi.values()))


def _degree_part(residual: dict, degree: int, zero) -> dict:
    """Per overlap or chart of `residual`, the degree-`degree` coefficients
    of its rows of series, per parameter monomial: {te: [coefficient]*rows},
    with `zero(overlap or chart)` where a row has none."""
    out = {}
    for at, rows in residual.items():
        per_t = {}
        for a, ser in enumerate(rows):
            for te, coeff in ser.homogeneous(degree).items():
                tup = per_t.setdefault(te, [zero(at)] * len(rows))
                tup[a] = tup[a] + coeff
        out[at] = per_t
    return out


def old_obstruction_cocycle(state: DeformationState) -> OldObstructionCocycle:
    """Degree-(m+1) obstruction data of an order-m family, read from its
    residuals, with its exact closedness certificates."""
    problem = state.problem
    space = problem.space
    m1 = state.order + 1
    res = state.residuals
    psi = _degree_part(res["gluing"], m1, lambda pair: LaurentPoly.zero(
        space.chart(pair[1]).vars))
    G = _degree_part(res["ideal"], m1, lambda name: Polyvector.zero(
        space.chart(name).vars, 1))
    Pi = ({name: ser.homogeneous(m1) for name, ser in res["jacobi"].items()}
          if problem.mode == "extended" else {})
    cocycle = OldObstructionCocycle(m1, problem.mode, psi, G, Pi)
    cocycle.certificates = old_certify_cocycle(state, cocycle)
    return cocycle


def _tmonomials(cocycle: OldObstructionCocycle):
    seen = set().union(*(d for part in (cocycle.psi, cocycle.G, cocycle.Pi)
                         for d in part.values()))
    return sorted(seen, key=lambda e: (sum(e), e))


def old_residual_total(descriptor, residuals: dict, te) -> tuple:
    """The coefficient at parameter monomial `te` of a family's residuals
    (`DeformationState.residuals`) as a degree-one total cochain (chart
    part, overlap part), for the descriptor's parts: the normal chart part
    is minus "ideal", the normal overlap part on (i, k) is minus "gluing"
    moved to chart i, the ambient chart part is half "jacobi" and the
    ambient overlap part on (i, k) is "lambda_gluing" at (k, i)."""
    space = descriptor.space
    chart, overlap = {}, {}
    if "nor" in descriptor.parts:
        S = descriptor.submanifold
        chart["nor"] = {name: [-ser.coefficient(te, Polyvector.zero(
            space.chart(name).vars, 1)) for ser in rows]
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


def old_certify_cocycle(state: DeformationState,
                        cocycle: OldObstructionCocycle) -> dict:
    """Exact closedness of the cocycle, one total cochain per parameter
    monomial (`residual_total` of the state's residuals). Raises
    ClosednessViolation on failure."""
    descriptor = _step_descriptor(state.problem)
    cert = {}
    for te in _tmonomials(cocycle):
        cert = total_closedness(descriptor, *old_residual_total(
            descriptor, state.residuals, te))
    return cert


def old_render_cocycle(cocycle, params) -> dict:
    psi = {}
    for (i, k), rows in sorted(cocycle.psi.items()):
        psi[f"{i}|{k}"] = {
            format_param_monomial(params, texp): [format_poly(p) for p in tup]
            for texp, tup in sorted(rows.items())}
    G = {}
    for name, rows in sorted(cocycle.G.items()):
        G[name] = {format_param_monomial(params, texp):
                   [format_polyvector(v) for v in tup]
                   for texp, tup in sorted(rows.items())}
    out = {"order": cocycle.order, "mode": cocycle.mode,
           "overlap_part": psi, "tangent_part": G}
    if cocycle.Pi:
        out["ambient_part"] = {
            name: {format_param_monomial(params, texp): format_polyvector(v)
                   for texp, v in sorted(rows.items())}
            for name, rows in sorted(cocycle.Pi.items())}
    return out


def _series(residual: dict):
    """(overlap or chart, row, series) of one residual of a family, whose
    values are series or lists of them."""
    for at, rows in residual.items():
        for a, ser in enumerate(rows if isinstance(rows, list) else [rows]):
            yield at, a, ser


@dataclass
class ObstructionClass:
    """Canonical obstruction class of a family at one extension step."""
    kind: str
    order: int
    ambient: dict | None = None        # chart -> Polyvector (degree 3)
    normal: dict | None = None         # chart -> [Polyvector deg 1]*r
    ambient_cech: dict | None = None   # (i, k) -> Polyvector (degree 2)
    normal_cech: dict | None = None    # (i, k) -> [LaurentPoly]*r on chart i

    def is_zero(self) -> bool:
        return all(_part_is_zero(part, val) for part, data in (
            ("amb", self.ambient), ("nor", self.normal),
            ("amb", self.ambient_cech), ("nor", self.normal_cech))
            if data for val in data.values())


def old_canonical_class(kind, desc, phi, lam, m):
    """Obstruction class of the canonical liftings of a degree-m family and
    its degree-one total cochain: `residual_total` of the family's
    residuals at order m + 1, the normal chart part restricted to the
    submanifold. The family itself carries any shift of the ideal
    generators or bivectors (`artin_obstruction`)."""
    from poissondef.artin import _BELOW_ORDER
    from poissondef.errors import InvalidDeformation
    S = desc.submanifold
    residuals = _residuals(kind, S, desc.manifold, phi, lam, m)
    for kinds, key, extra, message in _BELOW_ORDER:
        if kind not in kinds:
            continue
        for at, _, ser in _series(residuals[key]):
            low = ser.truncate(m + extra)
            if not low.is_zero():
                raise InvalidDeformation(message.format(
                    at=at, order=low.min_order()))
    chart, overlap = old_residual_total(desc, residuals, (m + 1,))
    cls = ObstructionClass(kind, m)
    if "amb" in chart:
        cls.ambient, cls.ambient_cech = chart["amb"], overlap["amb"]
    if "nor" in chart:
        for name, rows in chart["nor"].items():
            rows[:] = [restrict(g, S.normal[name]) for g in rows]
        cls.normal = chart["nor"]
        cls.normal_cech = {pair: [pv.as_function() for pv in rows]
                           for pair, rows in overlap["nor"].items()}
    return cls, chart, overlap


def old_render_class(cls) -> dict:
    out = {"order": cls.order, "zero": cls.is_zero()}
    if cls.ambient is not None:
        out["ambient"] = {name: format_polyvector(v)
                          for name, v in sorted(cls.ambient.items())}
    if cls.normal is not None:
        out["normal"] = {name: [format_polyvector(v) for v in tup]
                         for name, tup in sorted(cls.normal.items())}
    if cls.ambient_cech is not None:
        out["ambient_cech"] = {f"{i}|{k}": format_polyvector(v)
                               for (i, k), v in sorted(cls.ambient_cech.items())}
    if cls.normal_cech is not None:
        out["normal_cech"] = {f"{i}|{k}": [format_poly(p) for p in tup]
                              for (i, k), tup in sorted(cls.normal_cech.items())}
    return out


# ----------------------------------------------------------------------
# The order step's obstruction
# ----------------------------------------------------------------------

def in_order(report) -> str:
    """A rendered report with its key order, which the human-readable
    output shows and dict equality ignores."""
    return json.dumps(report)


def assert_cocycle_matches(state):
    """The new cocycle of an order-m state against the old psi/G/Pi build:
    same monomials, the parent's totals (the restriction changes nothing
    on solver states), certificates, zero test and solve report."""
    old = old_obstruction_cocycle(state)
    new = obstruction_cocycle(state)
    descriptor = _step_descriptor(state.problem)
    assert new.order == old.order
    assert list(new.totals) == _tmonomials(old)
    for te, total in new.totals.items():
        assert total == old_residual_total(descriptor, state.residuals, te)
    assert new.certificates == old.certificates
    assert new.is_zero() == old.is_zero()
    assert in_order(_render_cocycle(state)) == in_order(
        old_render_cocycle(old, state.params))


# The solves among the shipped examples that end obstructed, under the
# overrides of the `solve` command that reach an obstruction.
OBSTRUCTED_SOLVES = [(name, overrides)
                     for name in ("f0_instability", "f2_instability")
                     for overrides in ({}, {"order": 1}, {"order": 3},
                                       {"mode": "prescribed"}, {"degree": 1})]


@pytest.mark.parametrize("name,overrides", OBSTRUCTED_SOLVES)
def test_obstructed_solves_render_as_before(name, overrides):
    doc = parse((EXAMPLES / f"{name}.pdef").read_text())
    res = run_solver(doc.problem(**overrides))
    assert not res.ok
    assert_cocycle_matches(res.state)


def test_every_order_step_of_a_solve_matches(hyperplane_result,
                                             p2_worked):
    for state in (hyperplane_result.state, p2_worked["family"]):
        for k in range(1, state.order + 1):
            assert_cocycle_matches(truncate_state(state, k))


def test_a_gluing_only_order_step_matches(line_result):
    """The line's order-one family with its z3 row on U0 moved by the
    constant t1^2: the bracket-ideal residual does not see a constant, so
    the order-two cocycle has a gluing part alone, in one row of two."""
    cut = truncate_state(line_result.state, 1)
    vars0 = cut.problem.space.chart("U0").vars
    phi = dict(cut.phi)
    phi["U0"] = [cut.phi["U0"][0], cut.phi["U0"][1] + TruncatedSeries(
        cut.params, 4, {(2, 0): LaurentPoly.const(vars0, 1)})]
    state = DeformationState(cut.problem, 1, phi, cut.lam)
    rendered = _render_cocycle(state)
    assert rendered["tangent_part"] == {"U0": {}, "U2": {}}
    assert rendered["overlap_part"]["U0|U2"] == {"t1^2": ["0", "1"]}
    assert_cocycle_matches(state)


def _extended_state(extra):
    """The P3 hyperplane's order-one extended family (seed 0,14) cut to
    cutoff 2, whose bivectors gain t1^2 times `extra(M, U3 vars)` on the
    chart U3 alone."""
    M = build_p3()
    S = extract_submanifold(M, {"U0": ["z3"], "U1": ["z3"],
                                    "U2": ["z3"], "U3": ABSENT})
    prob = DeformationProblem(S, ("t1", "t2"), order=2, degree=2,
                              mode="extended", seed=(0, 14))
    seeded = run_solver(DeformationProblem(
        S, ("t1", "t2"), order=1, degree=2, mode="extended",
        seed=(0, 14))).state
    phi = {name: [TruncatedSeries(s.params, 2, s.terms) for s in rows]
           for name, rows in seeded.phi.items()}
    lam = {name: TruncatedSeries(s.params, 2, s.terms)
           for name, s in seeded.lam.items()}
    v = M.space.chart("U3").vars
    lam["U3"] = lam["U3"] + TruncatedSeries(("t1", "t2"), 2, {
        (2, 0): extra(M, v)})
    return DeformationState(prob, 1, phi, lam)


@pytest.fixture(scope="module")
def extended_obstruction():
    """Bivectors that gain t1^2 z3 d/z1^d/z2 on U3: the order-two Jacobi
    coefficient is non-zero there and the bivectors do not glue, so the
    order step is obstructed."""
    return _extended_state(lambda M, v: Polyvector.monomial(
        v, (0, 1), LaurentPoly.variable(v, "z3")))


def test_extended_obstruction_renders_its_ambient_part(extended_obstruction):
    state = extended_obstruction
    step = solve_order(state)
    assert isinstance(step, Obstructed)
    assert "('lam', " in step.witness
    assert_cocycle_matches(state)
    ambient = _render_cocycle(state)["ambient_part"]
    assert in_order(ambient) == in_order(old_render_cocycle(
        old_obstruction_cocycle(state), state.params)["ambient_part"])
    assert ambient == {"U0": {}, "U1": {}, "U2": {},
                       "U3": {"t1^2": "2 * z1 * z3 * d/z1 ^ d/z2 ^ d/z3"}}


def test_a_bivector_gluing_only_obstruction_is_seen():
    """Bivectors that gain t1^2 times U3's own structure on U3: Jacobi stays
    zero through order two, so only the bivector gluing fails, and the
    order step must report that obstruction instead of building an invalid
    family."""
    state = _extended_state(lambda M, v: M.bivector("U3"))
    res = state.residuals
    assert not any(ser.homogeneous(2) for ser in res["jacobi"].values())
    assert any(ser.homogeneous(2) for ser in res["lambda_gluing"].values())
    assert not obstruction_cocycle(state).is_zero()
    step = solve_order(state)
    assert isinstance(step, Obstructed)
    assert "('lam', 'U0', 'U3'," in step.witness


# ----------------------------------------------------------------------
# The small-ring class
# ----------------------------------------------------------------------

def _artin_inputs(doc, kind, order):
    """What the `artin` command hands `artin_obstruction`."""
    if kind == "def":
        return {"manifold": doc.manifold(), "lam": doc.lambda_family(),
                "order": order}
    prob = doc.problem()
    fam = doc.family_state(prob)
    return {"state": DeformationState(prob, order, fam.phi, fam.lam)}


def _outcome(build):
    try:
        return build()
    except ToolkitError as e:
        return type(e).__name__, str(e)


def _old_class(kind, state=None, manifold=None, lam=None, order=None):
    S, M, phi, lam_map, m = _family_pieces(kind, state, manifold, lam, order)
    desc = _descriptor(kind, S, M)
    cls, chart, overlap = old_canonical_class(kind, desc, phi, lam_map, m)
    return old_render_class(cls), total_closedness(desc, chart, overlap)


def _new_class(kind, **inputs):
    cls = artin_obstruction(kind, bound=0, **inputs).cls
    return _render_class(cls), cls.certificates


# The shipped files that carry a family: the artin command renders a class
# for no other file.
FAMILY_FILES = {path.stem: doc for path in sorted(EXAMPLES.glob("*.pdef"))
                if (doc := parse(path.read_text())).family or doc.lam}


@pytest.mark.parametrize("name", sorted(FAMILY_FILES))
def test_artin_classes_render_as_before(name):
    """Every functor at orders 0..2 on every shipped family: the same
    rendered class and certificates, or the same error. The class does not
    depend on the liftability bound."""
    doc = FAMILY_FILES[name]
    for kind in FUNCTORS:
        for order in range(3):
            inputs = _outcome(lambda: _artin_inputs(doc, kind, order))
            if isinstance(inputs, tuple):
                continue
            assert in_order(_outcome(lambda: _new_class(kind, **inputs))) == (
                in_order(_outcome(lambda: _old_class(kind, **inputs)))), (
                kind, order)


# ----------------------------------------------------------------------
# One series composition
# ----------------------------------------------------------------------

SOURCE, TARGET = ("x", "y"), ("u", "v", "w")
small = st.integers(min_value=-3, max_value=3).map(Fraction)


def _polys(vars, neg):
    exps = st.tuples(*[st.integers(min_value=-neg, max_value=2)
                       for _ in vars])
    return st.dictionaries(exps, small, max_size=3).map(
        lambda terms: LaurentPoly(vars, terms))


def _series_of(coeffs, params, cutoff):
    exps = st.tuples(*[st.integers(min_value=0, max_value=cutoff)
                       for _ in params])
    return st.dictionaries(exps, coeffs, max_size=3).map(
        lambda terms: TruncatedSeries(params, cutoff, terms))


@st.composite
def compositions(draw):
    params = ("t1", "t2")[:draw(st.integers(min_value=1, max_value=2))]
    cutoff = draw(st.integers(min_value=0, max_value=3))
    phi = draw(_series_of(_polys(SOURCE, 0), params, cutoff))
    assign = {v: draw(st.one_of(_polys(TARGET, 1),
                                _series_of(_polys(TARGET, 1), params, cutoff)))
              for v in SOURCE}
    return phi, assign, params, cutoff


@settings(max_examples=150, deadline=None, derandomize=True)
@given(compositions())
def test_composition_through_degree_zero_polyvectors(case):
    phi, assign, params, cutoff = case
    new = subs_normal_pv_series(phi.map(Polyvector.from_function), assign,
                                TARGET, params, cutoff).map(
        Polyvector.as_function)
    old = compose_scalar_series(phi, assign, params, cutoff, TARGET)
    assert new.params == old.params and new.cutoff == old.cutoff
    assert new.terms == old.terms
