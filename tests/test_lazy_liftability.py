"""Liftability columns only for a non-empty class, and one complex,
manifold and submanifold per command.

`complexes.CoboundarySystem` builds its columns when they are first read,
and solves an empty right-hand side by zero without reading them. The
system it replaced built every column in `__init__`; that `__init__` and
its `solve` are kept here verbatim as an oracle. On every `artin` argv of
the behaviour contract and on the shifted-family cases of `test_artin`
(`conftest.shifted_obstruction`), each liftability solve must give the
oracle's verdict, witness, unreached row and solution, and the oracle's
column build must raise nothing where the class is zero, so that skipping
it cannot turn an error into a report.

The count tests pin the work one command does: no column for a zero class,
one column set for a non-empty one, one descriptor per complex kind, one
submanifold extraction and one manifold.
"""

from collections import Counter
from pathlib import Path

import pytest

import poissondef
from report_contract import commands, run, scratch_directory
from test_artin import (_order_one_curve_state, _plane_direction_family,
                        _trivial_extension_state)
from test_artin import plane_curve, transverse_line  # noqa: F401 (fixtures)
from conftest import prescribed_instability, shifted_obstruction
from poissondef import artin, complexes, dsl
from poissondef.cli import run_command
from poissondef.complexes import (CoboundarySystem, ComplexDescriptor,
                                  atom_rows, total_coboundary, total_rows)
from poissondef.deformation import initial_state
from poissondef.errors import ToolkitError
from poissondef.geometry import PoissonManifold
from poissondef.linalg import solve_min

EXAMPLES = Path(poissondef.__file__).parent / "examples"
EXAMPLE_NAMES = sorted(p.name for p in EXAMPLES.glob("*.pdef"))
DECIDE = artin._decide_liftable


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------

class EagerSystem:
    """`complexes.CoboundarySystem` as it was: every column built in
    `__init__`."""

    def __init__(self, descriptor, atoms: list,
                 labels: dict, others: list = ()):
        self.descriptor = descriptor
        self.atoms = atoms
        self.others = list(others)
        self.labels = labels
        self.columns = [atom_rows(descriptor, atom, labels) for atom in atoms]
        self.columns += [self.rows(total_coboundary(descriptor, cochain))
                         for cochain in self.others]
        self._reached = set().union(*self.columns)
        self._unknowns = None

    def rows(self, total: tuple) -> dict:
        """`total_rows` of a total cochain (chart part, overlap part)."""
        return total_rows(*total, self.labels)

    def solve(self, total: tuple) -> tuple:
        """Solve sum_j x_j columns[j] = rows(total) exactly. Returns (x, None,
        None) with `solve_min`'s solution; (None, row, None) with the
        smallest row that no column reaches; or (None, None, witness) with
        `solve_min`'s witness row."""
        rhs = self.rows(total)
        unreached = min((k for k in rhs if k not in self._reached),
                        default=None)
        if unreached is not None:
            return None, unreached, None
        x, witness = solve_min(self.columns, rhs)
        return x, None, witness


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except ToolkitError as e:
        return type(e).__name__, str(e)


def _typed(got: tuple) -> tuple:
    """A `solve` triple with the type of every solution entry."""
    x, unreached, witness = got
    return (None if x is None else [(v, type(v)) for v in x], unreached,
            witness)


def _record_liftability(monkeypatch) -> list:
    """Record each `artin._decide_liftable` call: its atoms, system and
    total, whether the system held its columns before and after the call,
    and the outcome."""
    calls = []

    def decide(atoms, system, total):
        before = system._columns is not None
        try:
            got = DECIDE(atoms, system, total)
        except ToolkitError as e:
            got = type(e).__name__, str(e)
            raise
        finally:
            calls.append((atoms, system, total, before,
                          system._columns is not None, got))
        return got
    monkeypatch.setattr(artin, "_decide_liftable", decide)
    return calls


def _check_against_eager(calls) -> Counter:
    """Compare every recorded solve with the eager system's; return how many
    had a zero and a non-empty class."""
    seen = Counter()
    for atoms, system, total, before, after, got in calls:
        rhs = system.rows(total)
        eager = _outcome(EagerSystem, system.descriptor, system.atoms,
                         system.labels, system.others)
        if not rhs:
            # a zero class reads no column, and building them raises nothing
            assert after == before and isinstance(eager, EagerSystem), eager
        elif not isinstance(eager, EagerSystem):
            # building the columns raised, and so did the lazy build
            assert got == eager
            continue
        else:
            assert after
        assert got == _outcome(DECIDE, atoms, eager, total)
        assert _typed(system.solve(total)) == _typed(eager.solve(total))
        seen["zero" if not rhs else "non-empty"] += 1
    return seen


# ----------------------------------------------------------------------
# The eager oracle
# ----------------------------------------------------------------------

ARTIN_ARGVS = [argv for argv in commands() if argv[:1] == ["artin"]]


def test_contract_artin_solves_match_the_eager_system(monkeypatch):
    calls = _record_liftability(monkeypatch)
    with scratch_directory():
        for argv in ARTIN_ARGVS:
            run(argv)
    assert not any(before for _, _, _, before, _, _ in calls)
    seen = _check_against_eager(calls)
    # 64 solves, 20 of them with a non-empty class, when this was added
    assert seen["zero"] >= 40 and seen["non-empty"] >= 20


# the family, then the same family with its liftings shifted
PERTURBED = {
    "hilb-trivial": lambda line, plane: shifted_obstruction(
        "hilb", 7, state=_trivial_extension_state(*line), bound=3),
    "hilb-instability": lambda line, plane: shifted_obstruction(
        "hilb", 5, state=initial_state(prescribed_instability(0, 2)),
        bound=4),
    "exthilb-curve": lambda line, plane: shifted_obstruction(
        "exthilb", 3, state=_order_one_curve_state(*plane)[1], bound=2),
    "def-plane": lambda line, plane: shifted_obstruction(
        "def", 2, manifold=plane[0], lam=_plane_direction_family(plane[0]),
        order=1, bound=2),
}


@pytest.mark.parametrize("label", PERTURBED)
def test_perturbed_solves_match_the_eager_system(monkeypatch, label,
                                                 transverse_line,
                                                 plane_curve):
    calls = _record_liftability(monkeypatch)
    reports = PERTURBED[label](transverse_line, plane_curve)
    assert not any(before for _, _, _, before, _, _ in calls)
    seen = _check_against_eager(calls)
    assert sum(seen.values()) == 2
    # a zero class builds nothing; a non-empty one builds the columns on
    # its solve
    for (_, system, _, _, _, _), report in zip(calls, reports, strict=True):
        assert (system._columns is None) == report.cls.is_zero()


# ----------------------------------------------------------------------
# Count tests
# ----------------------------------------------------------------------

def _count_atom_rows(monkeypatch) -> list:
    calls = []
    original = complexes.atom_rows

    def counted(descriptor, atom, labels):
        calls.append(atom)
        return original(descriptor, atom, labels)
    monkeypatch.setattr(complexes, "atom_rows", counted)
    return calls


def test_a_zero_class_builds_no_column(monkeypatch):
    """The `solver` workload's `artin p3_hyperplane --order 2 --bound 5`."""
    calls = _count_atom_rows(monkeypatch)
    code, _ = run_command(["artin", str(EXAMPLES / "p3_hyperplane.pdef"),
                              "--order", "2", "--bound", "5"])
    assert code == 0
    assert calls == []


def test_a_non_empty_class_builds_one_column_set(monkeypatch):
    """`artin f0_instability`: one system, whose columns are built by the
    solve, one per atom, once."""
    calls = _count_atom_rows(monkeypatch)
    systems = []
    original = CoboundarySystem.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        systems.append((self, len(calls)))
    monkeypatch.setattr(CoboundarySystem, "__init__", init)
    code, _ = run_command(["artin", str(EXAMPLES / "f0_instability.pdef")])
    assert code == 2
    [(system, at_init)] = systems
    assert at_init == 0
    assert calls == system.atoms and len(calls) > 0


def _count_builds(monkeypatch):
    """Counters of the descriptors built, by complex kind, of the
    submanifold extractions and of the manifolds built."""
    kinds, made = Counter(), Counter()
    init = ComplexDescriptor.__init__

    def descriptor(self, kind, *args, **kwargs):
        kinds[kind] += 1
        init(self, kind, *args, **kwargs)
    extract = dsl.extract_submanifold

    def extracted(*args):
        made["submanifold"] += 1
        return extract(*args)
    manifold = PoissonManifold.__init__

    def structure(self, *args):
        made["manifold"] += 1
        manifold(self, *args)
    monkeypatch.setattr(ComplexDescriptor, "__init__", descriptor)
    monkeypatch.setattr(dsl, "extract_submanifold", extracted)
    monkeypatch.setattr(PoissonManifold, "__init__", structure)
    return kinds, made


def test_one_artin_command_builds_each_object_once(monkeypatch):
    """Every `artin` argv of the contract without --json: at most one
    descriptor per complex kind, one extraction and one manifold."""
    kinds, made = _count_builds(monkeypatch)
    over = []
    with scratch_directory():
        for argv in ARTIN_ARGVS:
            if "--json" in argv:
                continue
            kinds.clear()
            made.clear()
            run(argv)
            if max(kinds.values(), default=0) > 1 or max(
                    made.values(), default=0) > 1:
                over.append((" ".join(argv), dict(kinds), dict(made)))
    assert over == []


# (file, functor) pairs whose `artin` reaches the obstruction: zero and
# non-empty classes under each functor
FAMILY_RUNS = [("p2_def", "def"), ("f0_instability", "def"),
               ("f0_instability", "hilb"), ("f0_instability", "exthilb"),
               ("p2_extended_t", "hilb"), ("p3_hyperplane", "exthilb")]


@pytest.mark.parametrize("name, functor", FAMILY_RUNS)
def test_an_artin_family_builds_one_descriptor(monkeypatch, name, functor):
    """One complex serves the tangent space and the obstruction."""
    kinds, made = _count_builds(monkeypatch)
    code, text = run_command(["artin", str(EXAMPLES / f"{name}.pdef"),
                              "--functor", functor])
    assert code in (0, 2) and "liftable" in text
    want = {"def": "bivector", "hilb": "normal", "exthilb": "extended"}
    assert kinds == {want[functor]: 1}
    # def reads only the manifold and the bivector family, so it extracts
    # no submanifold even from a file that declares one
    assert made == ({"manifold": 1} if functor == "def" else
                    {"manifold": 1, "submanifold": 1})


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_validate_builds_its_manifold_once(monkeypatch, name):
    _, made = _count_builds(monkeypatch)
    run_command(["validate", str(EXAMPLES / name)])
    assert made["manifold"] == 1
    assert made["submanifold"] <= 1
