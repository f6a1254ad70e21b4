"""Small-parameter obstruction calculus for the three moduli functors."""

from pathlib import Path

import pytest

import poissondef
from conftest import (first_order_by_enumeration, prescribed_instability,
                      pv_monomial, shifted_obstruction)
from poissondef.artin import FUNCTORS, artin_first_order, artin_obstruction
from poissondef.complexes import cochain_vector_entries
from poissondef.dsl import parse
from poissondef.linalg import rank
from poissondef.deformation import (DeformationProblem, DeformationState,
                                    Obstructed, initial_state,
                                    obstruction_cocycle, run_solver,
                                    solve_order, verify_family)
from poissondef.cli import _render_class, run_command
from poissondef.errors import InconsistentData, InvalidDeformation
from poissondef.geometry import (ABSENT, PoissonManifold, affine_space,
                                 extract_submanifold, projective_space)
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly, TruncatedSeries


@pytest.fixture(scope="module")
def transverse_line():
    """Affine 3-space, structure w1*z on the first two frame slots, with the
    z-axis as submanifold."""
    space = affine_space(3, ("w1", "w2", "z"))
    vars = space.chart("U").vars
    lam = pv_monomial(vars, (0, 1),
                      LaurentPoly.variable(vars, "w1")
                      * LaurentPoly.variable(vars, "z"))
    M = PoissonManifold.from_chart_data(space, {"U": lam})
    S = extract_submanifold(M, {"U": ["w1", "w2"]})
    return M, S


@pytest.fixture(scope="module")
def plane_curve():
    space = projective_space(2)
    vars = space.chart("U0").vars
    lam = pv_monomial(vars, (0, 1), LaurentPoly.variable(vars, "z1"))
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
    lam = pv_monomial(vars, (0, 1), LaurentPoly.variable(vars, "x"))
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


def test_first_order_engines_agree_on_every_shipped_file():
    """On every shipped file, under def and, where the file declares a
    submanifold, under hilb and exthilb (55 pairs): H0 of the controlling
    complex and the epsilon-linearisation by enumeration, which reads the
    family residuals through `series_schouten`, span one space of atom
    coordinates at h0's stable degree bound. Files declaring the same atlas,
    structure and (for hilb and exthilb) submanifold share one comparison.
    The P3 exthilb cases start h0 at bound 3, not the suggested 4: it is
    stable there, and the enumeration at 4 takes about 0.5 s a case."""
    examples = Path(poissondef.__file__).parent / "examples"
    pairs, compared = 0, set()
    for path in sorted(examples.glob("*.pdef")):
        doc = parse(path.read_text(encoding="utf-8"))
        assert doc.builtin is not None
        for kind in FUNCTORS if doc.normal_spec else ("def",):
            pairs += 1
            key = repr((kind, doc.builtin, sorted(doc.poisson.items()),
                        kind != "def" and sorted(doc.normal_spec.items())))
            if key in compared:
                continue
            compared.add(key)
            M = doc.manifold()
            S = None if kind == "def" else doc.submanifold()
            engine = artin_first_order(
                kind, manifold=M, submanifold=S,
                bound=3 if kind == "exthilb" and doc.builtin[0] == "P3"
                else None)
            b = engine.degree_bound
            enum = first_order_by_enumeration(kind, manifold=M, submanifold=S,
                                              bound=b, amb_bound=b)
            sections = [dict(cochain_vector_entries(c)) for c in engine.basis]
            kernel = [{atom: c for atom, c in zip(enum["atoms"], vec) if c}
                      for vec in enum["kernel"]]
            assert engine.dimension == enum["dimension"] == rank(
                sections + kernel), (path.stem, kind)
    assert (pairs, len(compared)) == (55, 32)


# — liftable situation: zero class ------------------------------------------

def _trivial_extension_state(M, S):
    vars = M.space.chart("U").vars
    prob = DeformationProblem(S, ("t",), order=2, degree=3, mode="fixed",
                              bound=3)
    phi = {"U": [TruncatedSeries.zero(("t",), 2),
                 TruncatedSeries(("t",), 2,
                                 {(1,): LaurentPoly.variable(vars, "z")})]}
    lam = {"U": TruncatedSeries.const(("t",), 2, M.bivector("U"))}
    return DeformationState(prob, 1, phi, lam)


def test_trivial_extension_lifts(transverse_line):
    M, S = transverse_line
    state = _trivial_extension_state(M, S)
    assert verify_family(state, 1)["pass"]
    report, _ = shifted_obstruction("hilb", 7, state=state, bound=3)
    assert report.kind == "hilb"
    assert report.cls.is_zero()
    assert report.liftable
    assert all(report.cls.certificates.values())
    step = solve_order(state)
    assert not isinstance(step, Obstructed)


# — obstructed situation: nonzero class matching the solver cocycle ----------

def test_prescribed_instability_class(instability_setup=None):
    prob = prescribed_instability(0, 2)
    state = initial_state(prob)
    report, _ = shifted_obstruction("hilb", 5, state=state, bound=4)
    assert not report.cls.is_zero()
    assert not report.liftable
    assert "equation row" in report.witness

    cocycle = obstruction_cocycle(state)
    assert cocycle.totals == report.cls.totals
    assert cocycle.certificates == report.cls.certificates

    res = run_solver(prob)
    assert not res.ok
    assert res.obstructed.order == 1


# — coupled functor on the worked curve --------------------------------------

def _order_one_curve_state(M, S):
    vars0 = M.space.chart("U0").vars
    vars2 = M.space.chart("U2").vars
    direction = pv_monomial(vars0, (0, 1),
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
    report, _ = shifted_obstruction("exthilb", 3, state=state, bound=2)
    assert sorted(report.cls.certificates) == [
        "ambient-closed", "ambient-step", "ambient-triple",
        "normal-closed", "normal-step", "normal-triple"]
    assert all(report.cls.certificates.values())
    assert report.liftable

    cocycle = obstruction_cocycle(state)
    if (2,) in cocycle.totals:
        assert cocycle.totals[(2,)] == report.cls.totals[(2,)]
    else:
        assert report.cls.is_zero()
    step = solve_order(state)
    assert not isinstance(step, Obstructed)


def _plane_direction_family(M):
    """Lambda + t * d/z1^d/z2 on every chart of the plane."""
    vars0 = M.space.chart("U0").vars
    direction = pv_monomial(vars0, (0, 1), LaurentPoly.const(vars0, 1))
    return {name: (TruncatedSeries.const(("t",), 2, M.bivector(name))
                   + TruncatedSeries(("t",), 2,
                                     {(1,): M.space.pushforward(
                                         direction, "U0", name)}))
            for name in M.space.chart_names}


def test_ambient_functor_on_plane(plane_curve):
    M, _ = plane_curve
    lam = _plane_direction_family(M)
    report, _ = shifted_obstruction("def", 2, manifold=M, lam=lam, order=1,
                                    bound=2)
    assert report.kind == "def"
    assert report.cls.is_zero()
    assert report.liftable


def _shipped_families():
    """(file stem, functor, keywords of `artin_obstruction`) for every
    shipped file with a one-parameter family, under every functor it
    accepts: def where it declares an ambient family, hilb and exthilb
    where it declares a submanifold. Each is built as `cli._cmd_artin`
    builds it at --order 0."""
    examples = Path(poissondef.__file__).parent / "examples"
    for path in sorted(examples.glob("*.pdef")):
        doc = parse(path.read_text(encoding="utf-8"))
        if not (doc.family or doc.lam) or len(doc.params) != 1:
            continue
        for kind in FUNCTORS:
            if kind == "def" and doc.lam:
                yield path.stem, kind, {"manifold": doc.manifold(),
                                        "lam": doc.lambda_family(),
                                        "order": 0}
            elif kind != "def" and doc.normal_spec:
                prob = doc.problem()
                fam = doc.family_state(prob)
                yield path.stem, kind, {"state": DeformationState(
                    prob, 0, fam.phi, fam.lam)}


def test_lifting_choices_do_not_move_the_verdict_on_shipped_families():
    """Every shipped one-parameter family under each functor it accepts, at
    bounds 1 and 3 (40 runs): shifting the liftings moves the class by the
    total coboundary of the shift and keeps the verdict
    (`shifted_obstruction`)."""
    runs = []
    for seed, (stem, kind, family) in enumerate(_shipped_families()):
        for bound in (1, 3):
            shifted_obstruction(kind, seed, bound=bound, **family)
            runs.append((stem, kind, bound))
    assert len(runs) == 40


# — argument validation ------------------------------------------------------

def test_artin_argument_checks():
    with pytest.raises(InconsistentData):
        artin_obstruction("hilb")
    with pytest.raises(InconsistentData):
        artin_obstruction("nope")
    with pytest.raises(InconsistentData):
        artin_first_order("def")


# — invalid families: one message per failed identity below the order --------

def _shifted(M, shifts, cutoff=2):
    """Per chart, the bivector family Lambda + t * shifts[chart]."""
    return {name: TruncatedSeries(("t",), cutoff, {(0,): M.bivector(name)})
            + TruncatedSeries(("t",), cutoff, {(1,): shifts[name]}
                              if name in shifts else {})
            for name in M.space.chart_names}


def _curve_motion(S, cutoff=2, **motions):
    """Normal motions on the present charts of a plane curve: t * f on the
    charts named, zero elsewhere."""
    return {name: [TruncatedSeries(("t",), cutoff, {(1,): motions[name]}
                                   if name in motions else {})]
            for name in S.present_charts()}


def _jacobi_breaker(M):
    """d/w1^d/z on the transverse line's space: [Lambda, it] != 0."""
    vars = M.space.chart("U").vars
    return {"U": pv_monomial(vars, (0, 2), LaurentPoly.const(vars, 1))}


def _plane_breaker(M):
    """d/z1^d/z2 on chart U0 only: a Poisson cocycle there that fails to
    glue with the unmoved other charts."""
    vars0 = M.space.chart("U0").vars
    return {"U0": pv_monomial(vars0, (0, 1),
                              LaurentPoly.const(vars0, 1))}


def _invalid_jacobi(line, plane):
    M, _ = line
    return artin_obstruction("def", manifold=M, lam=_shifted(
        M, _jacobi_breaker(M)), order=1)


def _invalid_bivector_gluing(line, plane):
    M, S = plane
    prob = DeformationProblem(S, ("t",), order=2, degree=2, mode="extended")
    state = DeformationState(prob, 1, _curve_motion(S),
                             _shifted(M, _plane_breaker(M)))
    return artin_obstruction("exthilb", state=state)


def _invalid_ambient_jacobi(line, plane):
    M, S = line
    prob = DeformationProblem(S, ("t",), order=2, degree=2)
    phi = {"U": [TruncatedSeries.zero(("t",), 2)] * 2}
    # order 0: the given ambient family must hold through the new order too
    state = DeformationState(prob, 0, phi, _shifted(M, _jacobi_breaker(M)))
    return artin_obstruction("hilb", state=state)


def _invalid_ambient_gluing(line, plane):
    M, S = plane
    prob = DeformationProblem(S, ("t",), order=2, degree=2)
    state = DeformationState(prob, 0, _curve_motion(S),
                             _shifted(M, _plane_breaker(M)))
    return artin_obstruction("hilb", state=state)


def _invalid_bracket_ideal(line, plane):
    M, S = line
    vars = M.space.chart("U").vars
    prob = DeformationProblem(S, ("t",), order=2, degree=2)
    phi = {"U": [TruncatedSeries(("t",), 2, {(1,): LaurentPoly.const(vars, 1)}),
                 TruncatedSeries.zero(("t",), 2)]}
    state = DeformationState(prob, 1, phi, _shifted(M, {}))
    return artin_obstruction("hilb", state=state)


def _invalid_ideal_gluing(line, plane):
    space = projective_space(2)
    vars0 = space.chart("U0").vars
    M = PoissonManifold.from_chart_data(space,
                                        {"U0": Polyvector.zero(vars0, 2)})
    S = extract_submanifold(M, {"U0": ["z1"], "U1": ABSENT, "U2": ["z2"]})
    prob = DeformationProblem(S, ("t",), order=2, degree=2)
    phi = _curve_motion(S, U0=LaurentPoly.const(vars0, 1))
    return artin_obstruction(
        "hilb", state=DeformationState(prob, 1, phi, _shifted(M, {})))


@pytest.mark.parametrize("build, message", [
    (_invalid_jacobi,
     "bivector family on chart U fails its square-zero identity at order 1"),
    (_invalid_bivector_gluing,
     "bivector family does not glue over the base on overlap (U0, U1)"),
    (_invalid_ambient_jacobi,
     "ambient bivector family on chart U fails its square-zero identity"),
    (_invalid_ambient_gluing,
     "ambient bivector family does not glue on (U0, U1)"),
    (_invalid_bracket_ideal,
     "family is not a bracket-ideal family on chart U at order 1"),
    (_invalid_ideal_gluing,
     "family ideals do not glue on overlap (U0, U2) at order 1"),
])
def test_invalid_family_messages(transverse_line, plane_curve, build,
                                 message):
    with pytest.raises(InvalidDeformation) as info:
        build(transverse_line, plane_curve)
    assert str(info.value) == message


# — class values: the shifted classes and one obstructed ambient family ------

# `cli._render_class` of each class. No shipped file yields a class with a
# non-zero ambient, ambient_cech or normal_cech part; these do.
PINNED_CLASSES = {
    "hilb-trivial-perturbed": {
        "order": 1, "zero": False,
        "normal": {"U": ["8 * z^2 * d/w2", "-8 * z^2 * d/w1"]},
        "normal_cech": {}},
    "hilb-instability-perturbed": {
        "order": 0, "zero": False,
        "normal": {"U1": ["-7 * z * d/z"],
                   "U2": ["zp * d/zp + 8 * zp^3 * d/zp"]},
        "normal_cech": {"U1|U2": ["-8 * z^-1 + 6 * z"],
                        "U2|U1": ["-6 * zp^-1 + 8 * zp"]}},
    "exthilb-curve-perturbed": {
        "order": 1, "zero": False,
        "ambient": {"U0": "0", "U1": "0", "U2": "0"},
        "normal": {"U0": ["-5 * d/z2 + 4 * z2 * d/z2"],
                   "U2": ["7 * d/z1 - 6 * z1^3 * d/z1"]},
        "ambient_cech": {
            "U0|U1": "-5 * d/z1 ^ d/z2 - 6 * z1^3 * d/z1 ^ d/z2",
            "U0|U2": "-5 * d/z1 ^ d/z2 + 7 * z2^3 * d/z1 ^ d/z2",
            "U1|U0": "-6 * d/z1 ^ d/z2 - 5 * z1^3 * d/z1 ^ d/z2",
            "U1|U2": "-6 * d/z1 ^ d/z2 - 7 * z2^3 * d/z1 ^ d/z2",
            "U2|U0": "-7 * d/z1 ^ d/z2 + 5 * z1^3 * d/z1 ^ d/z2",
            "U2|U1": "-7 * d/z1 ^ d/z2 - 6 * z2^3 * d/z1 ^ d/z2"},
        "normal_cech": {"U0|U2": ["-6 + 4 * z2"], "U2|U0": ["-4 + 6 * z1"]}},
    "def-plane-perturbed": {
        "order": 1, "zero": False,
        "ambient": {"U0": "0", "U1": "0", "U2": "0"},
        "ambient_cech": {
            "U0|U1": "-4 * d/z1 ^ d/z2 - 5 * z1^3 * d/z1 ^ d/z2",
            "U0|U2": "-4 * d/z1 ^ d/z2 + 6 * z2^3 * d/z1 ^ d/z2",
            "U1|U0": "-5 * d/z1 ^ d/z2 - 4 * z1^3 * d/z1 ^ d/z2",
            "U1|U2": "-5 * d/z1 ^ d/z2 - 6 * z2^3 * d/z1 ^ d/z2",
            "U2|U0": "-6 * d/z1 ^ d/z2 + 4 * z1^3 * d/z1 ^ d/z2",
            "U2|U1": "-6 * d/z1 ^ d/z2 - 5 * z2^3 * d/z1 ^ d/z2"}},
    "def-jacobi-class": {
        "order": 0, "zero": False,
        "ambient": {"U": "-z * d/w1 ^ d/w2 ^ d/z"},
        "ambient_cech": {}},
}


def test_class_values_are_pinned(transverse_line, plane_curve):
    line_M, line_S = transverse_line
    plane_M, plane_S = plane_curve
    got = {
        "hilb-trivial-perturbed": shifted_obstruction(
            "hilb", 7, state=_trivial_extension_state(line_M, line_S),
            bound=3)[1].cls,
        "hilb-instability-perturbed": shifted_obstruction(
            "hilb", 5, state=initial_state(prescribed_instability(0, 2)),
            bound=4)[1].cls,
        "exthilb-curve-perturbed": shifted_obstruction(
            "exthilb", 3, state=_order_one_curve_state(plane_M, plane_S)[1],
            bound=2)[1].cls,
        "def-plane-perturbed": shifted_obstruction(
            "def", 2, manifold=plane_M, lam=_plane_direction_family(plane_M),
            order=1, bound=2)[1].cls,
        "def-jacobi-class": artin_obstruction(
            "def", manifold=line_M, lam=_shifted(line_M, _jacobi_breaker(
                line_M)), order=0, bound=2).cls,
    }
    assert {label: _render_class(cls) for label, cls in got.items()} == (
        PINNED_CLASSES)


# the plane's structure d/z1 ^ d/z2 does not keep the curve z1 = 0 Poisson
NOT_POISSON_CURVE = """
builtin P2;
poisson on U0: d/z1 ^ d/z2;
submanifold normal U0: [z1];
submanifold normal U1: absent;
submanifold normal U2: absent;
"""


def test_def_reads_no_submanifold(tmp_path):
    """The ambient functor reads only the manifold and its bivector family,
    so a submanifold that is not Poisson stops hilb and exthilb, not def."""
    path = tmp_path / "not_poisson_curve.pdef"
    path.write_text(NOT_POISSON_CURVE)
    code, text = run_command(["artin", str(path), "--functor", "def"])
    assert code == 0
    assert "functor: def" in text and "first_order_dimension:" in text
    for functor in ("hilb", "exthilb"):
        code, text = run_command(["artin", str(path), "--functor", functor])
        assert code == 2
        assert "error: not-poisson-submanifold" in text
