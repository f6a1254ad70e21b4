"""`complexes.CoboundarySystem` and the graded columns against the code they
replaced.

The order step and the small-ring liftability used to build the same
columns twice: `deformation._assemble_step_matrix` into a `StepSystem`, and
a comprehension in `artin.artin_obstruction`, both solved by
`complexes.solve_total`. The graded engine's `_weight_matrix` keyed its
columns by out-atom position. Those bodies are kept here verbatim as an
oracle, with the `total_coboundary` they called, which still took the
overlap pairs. The new code must build the same columns, keys in the same
order, and give the same solutions and the same failures; the graded
engine must give the same columns up to the names of its rows, and the
same kernels and ranks.

A monomial unknown's column is now `complexes.atom_rows`, built from the
atom's entries; it must equal, key for key, in order and with the same
scalar types, `total_rows` of the total coboundary of its atom cochain, or
raise the same error with the same message. The system builds its
unknowns as cochains only when they are read: the lazy list must equal the
parent's eager one, a corrected family must come out the same, and the
retry path must not read it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import poissondef
from conftest import build_c3, prescribed_instability
from test_deformation import CORRECTED_SEEDS
from test_transport_oracle import _outcome, _typed, cases
from poissondef import artin, complexes, deformation
from poissondef.artin import ARTIN_ROWS
from poissondef.cli import run_command
from poissondef.complexes import (CoboundarySystem, _minus, _transport,
                                  _weight_atoms, affine_hyper, atom_cochain,
                                  atom_rows, build_complex, cochain_lincomb,
                                  cochain_vector_entries, monomial_atoms,
                                  semiregularity_image_rank, total_rows)
from poissondef.deformation import (STEP_ROWS, DeformationProblem,
                                    DeformationState, _ambient_basis,
                                    _step_descriptor, run_solver)
from poissondef.dsl import parse
from poissondef.errors import InconsistentData, ToolkitError
from poissondef.geometry import (PoissonManifold, affine_space,
                                 codim1_line_bundle, extract_submanifold)
from poissondef.linalg import nullspace, rank, solve_min
from poissondef.polyvector import Polyvector, restrict
from poissondef.symbolic import LaurentPoly, TruncatedSeries

EXAMPLES = Path(poissondef.__file__).parent / "examples"


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------

def total_coboundary(descriptor, cochain: dict,
                     pairs) -> tuple:
    """Degree-one total cochain (chart part, overlap part) of a degree-zero
    chartwise cochain c.

    The chart part is d(c). The overlap part holds, per cochain part and per
    ordered overlap (i, k) of `pairs`, c_i - (c_k moved to chart i) on chart
    i: {"nor"|"amb": {(i, k): ...}}. A chart the cochain leaves out counts as
    zero, and an overlap it holds neither chart of is left out. Normal parts
    need both charts present.
    """
    present = (descriptor.submanifold.present_charts()
               if "nor" in descriptor.parts else ())
    overlap = {}
    for part in descriptor.parts:
        if part not in cochain:
            continue
        data = cochain[part]
        out = overlap[part] = {}
        for (i, k) in pairs:
            if i == k or (i not in data and k not in data):
                continue
            if part == "nor" and (i not in present or k not in present):
                continue
            if k not in data:
                out[(i, k)] = data[i]
            else:
                out[(i, k)] = _minus(part, data.get(i), _transport(
                    descriptor, part, data[k], k, i))
    return descriptor.differential(cochain, 0), overlap


def solve_total(columns: list, rhs: dict) -> tuple:
    """Solve sum_j x_j columns[j] = rhs exactly, each side linearised by
    `total_rows`. Returns (x, None, None) with `solve_min`'s solution;
    (None, row, None) with the smallest rhs row that no column reaches; or
    (None, None, witness) with `solve_min`'s witness row."""
    reached = set().union(*columns)
    unreached = min((k for k in rhs if k not in reached), default=None)
    if unreached is not None:
        return None, unreached, None
    x, witness = solve_min(columns, rhs)
    return x, None, witness


@dataclass
class StepSystem:
    """The order-step matrix at one degree bound: the ambient sections, the
    unknowns' degree-zero cochains (monomial atoms, then ambient sections)
    and one sparse column {row key: value} per unknown. It depends only on
    the problem, the degree and the sections, so one serves every step of a
    run."""
    degree: int
    amb_basis: list
    cochains: list
    columns: list


def _assemble_step_matrix(problem, degree, amb_basis) -> StepSystem:
    """Columns of the order-step system: `total_rows` of the total
    coboundary of each unknown atom and ambient section over every ordered
    overlap (i, k), under `STEP_ROWS`. The sections glue, so their ambient
    overlap rows are empty."""
    present = problem.submanifold.present_charts()
    descriptor = _step_descriptor(problem)
    pairs = problem.space.overlap_pairs()
    atoms = monomial_atoms(descriptor, "nor", 0, present, degree)
    cochains = [atom_cochain(descriptor, 0, atom) for atom in atoms]
    cochains += [{"amb": sec["amb"]} for sec in amb_basis]
    columns = [total_rows(*total_coboundary(descriptor, cochain, pairs),
                          STEP_ROWS) for cochain in cochains]
    return StepSystem(degree, amb_basis, cochains, columns)


def _solve_step(cocycle, system: StepSystem):
    """Solve one order step on the cocycle's total cochains; returns
    (per-te solutions, None) or (None, witness description)."""
    solutions = {}
    for te, total in cocycle.totals.items():
        sol, unreached, bad = solve_total(system.columns,
                                          total_rows(*total, STEP_ROWS))
        if unreached is not None:
            return None, (f"no unknown reaches equation row {unreached} "
                          f"at parameter monomial {te}")
        if sol is None:
            return None, (f"inconsistent at parameter monomial {te}, "
                          f"equation row {bad}")
        solutions[te] = sol
    return solutions, None


def _artin_columns(desc, atoms, pairs):
    """The column comprehension of `artin.artin_obstruction`."""
    columns = [total_rows(*total_coboundary(
        desc, atom_cochain(desc, 0, atom), pairs), ARTIN_ROWS)
        for atom in atoms]
    return columns


def _decide_liftable(atoms, columns, rows):
    """Solve total_coboundary(unknowns) = class over the monomial unknowns
    `atoms`, whose `total_rows` are `columns`; `rows` are the class's."""
    sol, unreached, witness = solve_total(columns, rows)
    if unreached is not None:
        return False, f"no unknown reaches equation row {unreached}", None
    if sol is None:
        where = witness if witness is not None else "unknown"
        return False, f"inconsistent equation row {where}", None
    solution = {atom: v for atom, v in zip(atoms, sol) if v}
    return True, None, solution


def _weight_matrix(descriptor, p, w_in, w_out):
    """Matrix of the differential from weight w_in atoms at term p to weight
    w_out atoms at term p+1; returns (columns keyed by out-atom position,
    in_atoms, out_atoms)."""
    in_atoms = _weight_atoms(descriptor, p, w_in)
    out_atoms = _weight_atoms(descriptor, p + 1, w_out)
    out_index = {atom: i for i, atom in enumerate(out_atoms)}
    cols = []
    for atom in in_atoms:
        img = descriptor.differential(atom_cochain(descriptor, p, atom), p)
        col = {}
        for key, val in cochain_vector_entries(img):
            i = out_index.get(key)
            if i is not None:
                col[i] = val
            elif val:
                raise InconsistentData(
                    "differential left the graded window; structure is not "
                    "weight-homogeneous")
        cols.append(col)
    return cols, in_atoms, out_atoms


def _semiregularity_image_rank(lb_descriptor, nor_descriptor, weight) -> int:
    """`semiregularity_image_rank` with its position-keyed `restrict_col`."""
    S = nor_descriptor.submanifold
    chart = nor_descriptor.space.charts[0]
    w_names = S.normal[chart.name]
    shift, _ = complexes._structure_weight(nor_descriptor)
    # cocycles upstairs
    m1, in1, _ = _weight_matrix(lb_descriptor, 1, weight, weight + shift)
    cocycles = nullspace(m1)
    atoms1 = [atom_cochain(lb_descriptor, 1, a) for a in in1]
    # coordinates downstairs, keyed by out-atom position like the image
    image, _, out_atoms = _weight_matrix(nor_descriptor, 0, weight - shift,
                                         weight)
    out_index = {a: i for i, a in enumerate(out_atoms)}

    def restrict_col(cochain):
        col = {}
        rest = restrict(cochain["amb"][chart.name], w_names)
        for idx, coeff in rest.terms.items():
            for e, val in coeff.terms.items():
                i = out_index.get(("nor", chart.name, 0, idx, e))
                if i is not None:
                    col[i] = col.get(i, 0) + val
        return col

    restricted = [restrict_col(cochain_lincomb(vec, atoms1)) for vec in cocycles]
    return rank(image + restricted) - rank(image)


# ----------------------------------------------------------------------
# Comparing the systems the new code builds
# ----------------------------------------------------------------------

def _entry_rows(desc, atom, labels=STEP_ROWS):
    return _typed(atom_rows(desc, atom, labels))


def _cochain_rows(desc, atom, labels=STEP_ROWS):
    return _typed(total_rows(*complexes.total_coboundary(
        desc, atom_cochain(desc, 0, atom)), labels))


def _assert_atom_rows(desc, atoms, labels):
    """`atom_rows` of each atom has the keys, in order, the values and the
    scalar types of `total_rows` of its atom cochain's total coboundary."""
    for atom in atoms:
        assert _entry_rows(desc, atom, labels) == \
            _cochain_rows(desc, atom, labels), atom


def _ordered(columns):
    return [list(col.items()) for col in columns]


def _kind(witness):
    return ("ok" if witness is None else
            "unreached" if witness.startswith("no unknown") else
            "inconsistent" if witness.startswith("inconsistent") else witness)


# The `solve` commands of the `solver` benchmark workload: file, seed, order.
SOLVER_RUNS = [("p3_hyperplane", None, 40), ("p3_hyperplane_s2", None, 24),
               ("p3_line", None, 40), ("p2_extended", (0, 1), 24),
               ("p2_extended_t", (0,), 20)]


def _file_problem(name, seed=None, order=None, degree=None):
    doc = parse((EXAMPLES / f"{name}.pdef").read_text())
    return doc.problem(order=order, seed=seed, degree=degree)


@pytest.mark.parametrize("name, seed, order", SOLVER_RUNS)
def test_step_columns_match_the_parent(name, seed, order):
    problem = _file_problem(name, seed, order)
    amb = _ambient_basis(problem)
    for degree in sorted({0, 1, problem.degree}):
        old = _assemble_step_matrix(problem, degree, amb)
        new = deformation._step_system(problem, degree, amb)
        assert new.labels is STEP_ROWS
        assert _ordered(new.columns) == _ordered(old.columns)
        _assert_atom_rows(new.descriptor, new.atoms, STEP_ROWS)
        assert new.others == [{"amb": sec["amb"]} for sec in amb]
        # the unknowns are built when first read, as the parent built them
        assert new._unknowns is None
        assert new.unknowns == old.cochains
        assert new.unknowns is new.unknowns


def _steep_prescribed_problem(degree):
    """Single-chart problem whose first-order correction needs a degree-one
    coefficient on the root chart (as in `test_deformation`)."""
    space = affine_space(3)
    vars = space.chart("U").vars
    lam0 = Polyvector.monomial(vars, (0, 1),
                               LaurentPoly(vars, {(1, 0, 1): Fraction(1)}))
    M = PoissonManifold(space, {"U": lam0})
    S = extract_submanifold(M, {"U": ["x1", "x2"]})
    bump = Polyvector.monomial(vars, (0, 1),
                               LaurentPoly(vars, {(0, 0, 2): Fraction(1)}))
    pres = {"U": TruncatedSeries.const(("t",), 2, lam0)
            + TruncatedSeries(("t",), 2, {(1,): bump})}
    return DeformationProblem(S, ("t",), order=2, degree=degree,
                              mode="prescribed", prescribed=pres)


def _corrected_hyperplane(seed):
    """An extended two-parameter hyperplane family whose order-two step
    makes a non-zero correction, for a seed of `CORRECTED_SEEDS`."""
    sub = _file_problem("p3_hyperplane").submanifold
    return DeformationProblem(sub, ("t1", "t2"), order=4, degree=2,
                              mode="extended", seed=seed)


# Solver problems whose steps succeed, meet an unreached row, or retry one
# and two degrees higher: the workload's solves at low orders, the
# obstructed files at degrees 0 and 1, the prescribed instabilities and two
# corrected families.
STEP_PROBLEMS = (
    [(name, lambda n=name, s=seed: _file_problem(n, s, 4))
     for name, seed, _ in SOLVER_RUNS]
    + [(f"{name}-d{d}", lambda n=name, d=d: _file_problem(n, degree=d))
       for name in ("f0_instability", "f2_instability", "p3_hyperplane")
       for d in (0, 1)]
    + [(f"instability{m}-d{d}", lambda m=m, d=d: prescribed_instability(m, d))
       for m in (0, 2) for d in (0, 1, 2)]
    + [(f"steep-d{d}", lambda d=d: _steep_prescribed_problem(d))
       for d in (0, 1)]
    + [(f"corrected{seed}", lambda s=seed: _corrected_hyperplane(s))
       for seed in CORRECTED_SEEDS])

# The problems among them whose every order step has an empty cocycle, so
# that the solver builds and solves no step system.
NO_STEP_PROBLEMS = {name for name, _, _ in SOLVER_RUNS} | {
    "p3_hyperplane-d0", "p3_hyperplane-d1"}


def _run_recording_steps(monkeypatch, problem):
    """Run the solver; return, per order step and retry, the cocycle, the
    system, its degree and ambient sections, and the step's result."""
    made, calls = {}, []
    original_system = deformation._step_system
    original_solve = deformation._solve_step

    def step_system(problem, degree, amb_basis):
        system = original_system(problem, degree, amb_basis)
        made[id(system)] = (degree, amb_basis)
        return system

    def solve_step(cocycle, system):
        got = original_solve(cocycle, system)
        calls.append((cocycle, system, made[id(system)], got))
        return got
    monkeypatch.setattr(deformation, "_step_system", step_system)
    monkeypatch.setattr(deformation, "_solve_step", solve_step)
    try:
        run_solver(problem)
    except ToolkitError:
        pass
    return calls


def test_step_solutions_match_the_parent(monkeypatch):
    kinds, no_step = set(), set()
    for label, make in STEP_PROBLEMS:
        problem = make()
        calls = _run_recording_steps(monkeypatch, problem)
        if not calls:
            no_step.add(label)
        for cocycle, system, (degree, amb_basis), got in calls:
            old = _assemble_step_matrix(problem, degree, amb_basis)
            assert _ordered(system.columns) == _ordered(old.columns), label
            assert system.unknowns == old.cochains, label
            assert got == _solve_step(cocycle, old), label
            for total in cocycle.totals.values():
                assert system.solve(total) == solve_total(
                    old.columns, total_rows(*total, STEP_ROWS)), label
            kinds.add(_kind(got[1]))
    assert no_step == NO_STEP_PROBLEMS
    assert kinds == {"ok", "unreached"}


@dataclass
class _Cocycle:
    totals: dict


@pytest.mark.parametrize("name", ["p3_hyperplane", "p2_extended_t"])
def test_step_failures_match_the_parent(name):
    """No shipped solve meets an inconsistent step, so make some: per
    unknown of a degree-one system, its whole total coboundary (solvable),
    its chart part alone (every row reached, but the overlap part missing)
    and the chart part of a degree-two atom (rows no unknown reaches)."""
    problem = _file_problem(name, (0,) if name == "p2_extended_t" else None)
    amb = _ambient_basis(problem)
    new = deformation._step_system(problem, 1, amb)
    old = _assemble_step_matrix(problem, 1, amb)
    desc = _step_descriptor(problem)
    higher = [atom_cochain(desc, 0, atom) for atom in monomial_atoms(
        desc, "nor", 0, problem.submanifold.present_charts(), 2)]
    kinds = set()
    for cochain in new.unknowns + higher:
        chart, overlap = complexes.total_coboundary(desc, cochain)
        for total in ((chart, overlap), (chart, {})):
            cocycle = _Cocycle({(1,): total})
            got = deformation._solve_step(cocycle, new)
            assert got == _solve_step(cocycle, old)
            kinds.add(_kind(got[1]))
    assert kinds == {"ok", "unreached", "inconsistent"}


def _family_files():
    out = []
    for path in sorted(EXAMPLES.glob("*.pdef")):
        doc = parse(path.read_text())
        if doc.family or doc.lam:
            out.append(path.stem)
    return out


@pytest.mark.parametrize("name", _family_files())
def test_artin_columns_and_verdicts_match_the_parent(monkeypatch, name):
    """On every family file, every functor and bounds 0..2: the system
    `artin_obstruction` solves has the parent's columns, keys in order, and
    decides liftability as the parent did."""
    calls = []
    original = artin._decide_liftable

    def decide(atoms, system, total):
        got = original(atoms, system, total)
        calls.append((atoms, system, total, got))
        return got
    monkeypatch.setattr(artin, "_decide_liftable", decide)
    path = str(EXAMPLES / f"{name}.pdef")
    for functor in artin.FUNCTORS:
        for bound in (0, 1, 2):
            run_command(["artin", path, "--functor", functor, "--bound",
                         str(bound)])
    for atoms, system, total, got in calls:
        desc = system.descriptor
        assert system.labels is ARTIN_ROWS
        assert system.atoms == atoms and system.others == []
        assert system.unknowns == [atom_cochain(desc, 0, a) for a in atoms]
        old = _artin_columns(desc, atoms, desc.space.overlap_pairs())
        assert _ordered(system.columns) == _ordered(old)
        _assert_atom_rows(desc, atoms, ARTIN_ROWS)
        rows = total_rows(*total, ARTIN_ROWS)
        assert system.rows(total) == rows
        assert got == _decide_liftable(atoms, old, rows)


def test_artin_reaches_every_outcome(monkeypatch):
    """The artin cases above meet a solution and both failures."""
    kinds = set()
    original = artin._decide_liftable

    def decide(atoms, system, total):
        got = original(atoms, system, total)
        kinds.add(_kind(got[1]))
        return got
    monkeypatch.setattr(artin, "_decide_liftable", decide)
    for name, functor, bound in (("p3_hyperplane", "hilb", 1),
                                 ("f2_instability", "hilb", 0),
                                 ("f0_instability", "exthilb", 0)):
        run_command(["artin", str(EXAMPLES / f"{name}.pdef"), "--functor",
                     functor, "--bound", str(bound)])
    assert kinds == {"ok", "unreached", "inconsistent"}


def test_perturbation_identity_matches_the_parent_rows():
    """The perturbed class moves by the total coboundary of the shift, read
    through the liftability system's rows as the parent read it."""
    prob = _file_problem("p3_hyperplane")
    doc = parse((EXAMPLES / "p3_hyperplane.pdef").read_text())
    fam = doc.family_state(prob)
    state = DeformationState(prob, 0, fam.phi, fam.lam)
    S = prob.submanifold
    for kind in ("hilb", "exthilb"):
        report = artin.artin_obstruction(kind, state=state, bound=1,
                                         perturb=3)
        assert report.invariance["identities"]
        desc = artin._descriptor(kind, S, None)
        shifts = artin._default_perturbation(kind, S, S.manifold, 3)
        shift = {"nor": {name: [Polyvector.from_function(-f) for f in A]
                         for name, A in shifts["A"].items()}}
        if "D" in shifts:
            shift["amb"] = shifts["D"]
        system = CoboundarySystem(desc, [], ARTIN_ROWS)
        new = system.rows(complexes.total_coboundary(desc, shift))
        assert new and new == total_rows(*total_coboundary(
            desc, shift, desc.space.overlap_pairs()), ARTIN_ROWS)


# ----------------------------------------------------------------------
# Atom columns from entries, and the unknowns built when read
# ----------------------------------------------------------------------

@cache
def _descriptor(name, kind):
    """One descriptor per atlas of `test_transport_oracle` and kind."""
    S = cases()[name][1]
    if kind == "bivector":
        return build_complex(kind, manifold=S.manifold)
    return build_complex(kind, submanifold=S)


@st.composite
def drawn_atoms(draw):
    """A normal, extended or bivector descriptor on an atlas with a
    submanifold, among them the non-monomial `shear` of `test_transport`
    and the plane bundle whose first-order matrix has two-term entries, and
    a degree-zero atom of one of its parts: exponents from -1 to 2, normal
    ones of a normal atom mostly 0 and sometimes -1."""
    name = draw(st.sampled_from(sorted(n for n, (_, S) in cases().items()
                                       if S)))
    desc = _descriptor(name, draw(st.sampled_from(
        ("normal", "extended", "bivector"))))
    part = draw(st.sampled_from(desc.parts))
    chart = draw(st.sampled_from(desc.part_charts(part)))
    cvars = desc.space.chart(chart).vars
    normal = desc.submanifold.normal[chart] if part == "nor" else ()
    e = tuple(draw(st.sampled_from((0, 0, 0, -1)) if v in normal else
                   st.integers(-1, 2)) for v in cvars)
    idx = draw(st.sampled_from(list(combinations(
        range(len(cvars)), desc.term_degree(part, 0)))))
    head = (draw(st.integers(0, desc.submanifold.codim - 1)),) \
        if part == "nor" else ()
    return desc, (part, chart) + head + (idx, e)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_atoms())
def test_atom_rows_match_the_cochain_rows_on_drawn_atoms(drawn):
    desc, atom = drawn
    assert _outcome(_entry_rows, desc, atom) == \
        _outcome(_cochain_rows, desc, atom)


@pytest.mark.parametrize("kind", ["normal", "extended", "bivector"])
def test_atom_rows_on_the_non_monomial_shear(kind):
    desc = _descriptor("shear", kind)
    for part in desc.parts:
        _assert_atom_rows(desc, monomial_atoms(
            desc, part, 0, desc.part_charts(part), 3), STEP_ROWS)


def test_a_negative_normal_power_raises_as_the_cochain_path_does(
        p3_hyperplane_sub):
    """On `p3_hyperplane` the moved atom raises first; on the single chart
    of `c3_line` the differential does."""
    _, c3_sub = build_c3()
    for S in (p3_hyperplane_sub, c3_sub):
        chart = S.present_charts()[0]
        cvars = S.space.chart(chart).vars
        e = [2] * len(cvars)
        e[cvars.index(S.normal[chart][0])] = -1
        for kind in ("normal", "extended"):
            desc = build_complex(kind, submanifold=S)
            for idx in ((), (0,)):
                atom = ("nor", chart, 0, idx, tuple(e))
                got = _outcome(_entry_rows, desc, atom)
                assert got[0] == "NegativePowerAtZero"
                assert got[1].startswith("cannot set")
                assert got == _outcome(_cochain_rows, desc, atom)


@pytest.mark.parametrize("seed", [(0, 14), (1, 11)])
def test_a_corrected_family_is_the_one_eager_unknowns_give(monkeypatch,
                                                          p3_hyperplane_sub,
                                                          seed):
    """These extended hyperplane families are corrected at order two, so
    the step reads the unknowns as cochains; the family is the one the
    parent's eagerly built unknowns give."""
    def problem():
        return DeformationProblem(p3_hyperplane_sub, ("t1", "t2"), order=3,
                                  degree=2, mode="extended", seed=seed)
    made = []
    original = deformation._step_system

    def recorded(problem, degree, amb_basis):
        made.append(original(problem, degree, amb_basis))
        return made[-1]
    monkeypatch.setattr(deformation, "_step_system", recorded)
    lazy = run_solver(problem())
    assert lazy.ok and made and all(s._unknowns is not None for s in made)

    def eager(problem, degree, amb_basis):
        system = original(problem, degree, amb_basis)
        system._unknowns = _assemble_step_matrix(
            problem, degree, amb_basis).cochains
        return system
    monkeypatch.setattr(deformation, "_step_system", eager)
    parent = run_solver(problem())
    assert parent.ok
    assert lazy.state.phi == parent.state.phi
    assert lazy.state.lam == parent.state.lam


def test_the_retry_path_reads_no_unknown(monkeypatch):
    """An obstructed step retries one and two degrees higher with the
    sections the system holds apart; nothing builds the atoms' cochains."""
    reads, made = [], []
    original = deformation._step_system

    def recorded(problem, degree, amb_basis):
        made.append(degree)
        return original(problem, degree, amb_basis)
    monkeypatch.setattr(deformation, "_step_system", recorded)
    monkeypatch.setattr(CoboundarySystem, "unknowns",
                        property(lambda self: reads.append(self)))
    for name in ("f0_instability", "f2_instability"):
        made.clear()
        result = run_solver(_file_problem(name, degree=0))
        assert not result.ok and made == [0, 1, 2]
    assert reads == []


# ----------------------------------------------------------------------
# The graded engine
# ----------------------------------------------------------------------

def _c3_descriptors():
    man, sub = build_c3()
    return {"normal": build_complex("normal", submanifold=sub),
            "bivector": build_complex("bivector", manifold=man),
            "extended": build_complex("extended", submanifold=sub)}


def _divisor_line_bundles():
    """The codimension-one divisors x1 = 0 of the structures
    x1 d/x1^d/x2 on C2 and x1*x3 d/x1^d/x2 on C3, each with its scalar-slot
    and restricted-tuple complexes."""
    out = []
    for n, coeff in ((2, (1, 0)), (3, (1, 0, 1))):
        space = affine_space(n)
        v = space.chart("U").vars
        lam = Polyvector.monomial(v, (0, 1), LaurentPoly.monomial(v, coeff))
        man = PoissonManifold.from_chart_data(space, {"U": lam})
        sub = extract_submanifold(man, {"U": ["x1"]})
        out.append((build_complex("linebundle",
                                  linebundle=codim1_line_bundle(sub)),
                    build_complex("normal", submanifold=sub)))
    return out


def _graded_descriptors():
    return list(_c3_descriptors().values()) + [
        d for pair in _divisor_line_bundles() for d in pair]


@pytest.mark.parametrize("w", range(6))
def test_weight_columns_match_the_parent(w):
    """Same atoms, the same columns once positions are named by their
    out-atoms, and the same kernels and ranks."""
    for desc in _graded_descriptors():
        shift, _ = complexes._structure_weight(desc)
        for p, w_in in ((0, w), (1, w), (0, w - shift)):
            try:
                old, old_in, old_out = _weight_matrix(desc, p, w_in,
                                                      w_in + shift)
            except InconsistentData as err:
                with pytest.raises(InconsistentData, match=str(err)):
                    complexes._weight_matrix(desc, p, w_in, w_in + shift)
                continue
            new, new_in, new_out = complexes._weight_matrix(
                desc, p, w_in, w_in + shift)
            assert new_in == old_in
            assert new_out == set(old_out)
            assert [{old_out[i]: v for i, v in col.items()} for col in old] \
                == [{k: v for k, v in col.items() if k in new_out}
                    for col in new]
            assert nullspace(new) == nullspace(old)
            assert rank(new) == rank(old)


def test_affine_hyper_matches_the_parent(monkeypatch):
    weights = range(6)
    new = {}
    for kind, desc in _c3_descriptors().items():
        try:
            new[kind] = affine_hyper(desc, weights, degrees=(0, 1))
        except InconsistentData as err:
            new[kind] = str(err)
    monkeypatch.setattr(complexes, "_weight_matrix", _weight_matrix)
    for kind, desc in _c3_descriptors().items():
        try:
            old = affine_hyper(desc, weights, degrees=(0, 1))
        except InconsistentData as err:
            assert new[kind] == str(err)
            continue
        assert new[kind].weights == old.weights
        assert new[kind].dimension == old.dimension
        assert new[kind].basis == old.basis
    # the extended kind still leaves the graded window on c3_line
    assert "left the graded window" in new["extended"]


def test_semiregularity_image_rank_matches_the_parent():
    for lb, nor in _divisor_line_bundles():
        for w in range(6):
            assert semiregularity_image_rank(lb, nor, w) == \
                _semiregularity_image_rank(lb, nor, w)
