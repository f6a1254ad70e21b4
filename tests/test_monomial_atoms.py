"""`complexes.monomial_atoms` against the five enumerators it replaced.

Each replaced enumerator is kept here verbatim as an oracle, the way
`test_linalg.dense_rref` keeps the dense row reduction. Its atoms are
translated to the coordinate keys `cochain_vector_entries` gives a
one-monomial cochain, and compared with `monomial_atoms`:

- the same sequence as the section search (`_atom_sections`) and the solver
  step (`_phi_atoms`), whose minimal solutions depend on column order;
- the same fixed-weight sequence as the graded engine (`_weight_atoms`);
- the same set as the small-ring enumeration (`_enumeration_atoms`) and the
  square-zero probes (`conftest.monomial_probes`).
"""

from fractions import Fraction
from itertools import combinations

import pytest

import conftest
from conftest import build_fm_section
from poissondef import complexes
from poissondef.complexes import (atom_cochain, build_complex,
                                  cochain_vector_entries, monomial_atoms,
                                  transport_nor_tuple)
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly, _simplex

BOUNDS = range(4)


# ----------------------------------------------------------------------
# The replaced enumerators, verbatim
# ----------------------------------------------------------------------

def _atom_sections(descriptor, part: str, p: int, bound: int):
    """Atoms (root-chart monomial candidates) and their transported chart
    representatives, plus the holomorphy constraint matrix."""
    space = descriptor.space
    if part == "nor":
        S = descriptor.submanifold
        charts = list(S.present_charts())
        root = charts[0]
        tree = space.spanning_tree(root, charts)
        chart = space.chart(root)
        tvars = S.tangential[root]
        tidx = [chart.vars.index(v) for v in tvars]
        atoms = []
        for a in range(S.codim):
            for idx in combinations(range(len(chart.vars)), p):
                for e_t in sorted(_simplex(len(tvars), bound),
                                  key=lambda t: (sum(t), t)):
                    e = [0] * len(chart.vars)
                    for pos, x in zip(tidx, e_t):
                        e[pos] = x
                    atoms.append((a, idx, tuple(e)))
        reps = []
        for (a, idx, e) in atoms:
            tup = [Polyvector.zero(chart.vars, p) for _ in range(S.codim)]
            tup[a] = Polyvector(chart.vars, p,
                                {idx: LaurentPoly.monomial(chart.vars, e)})
            rep = {root: tup}
            for (parent, child) in tree:
                rep[child] = transport_nor_tuple(S, rep[parent], parent, child)
            reps.append(rep)
        return charts, atoms, reps
    # ambient parts
    deg = p if descriptor.kind == "linebundle" else p + 2
    charts = list(space.chart_names)
    root = charts[0]
    tree = space.spanning_tree(root, charts) if len(charts) > 1 else []
    chart = space.chart(root)
    n = len(chart.vars)
    atoms = []
    for idx in combinations(range(n), deg):
        for e in sorted(_simplex(n, bound), key=lambda t: (sum(t), t)):
            atoms.append((None, idx, e))
    reps = []
    for (_, idx, e) in atoms:
        pv = Polyvector(chart.vars, deg,
                        {idx: LaurentPoly.monomial(chart.vars, e)})
        rep = {root: pv}
        for (parent, child) in tree:
            rep[child] = space.pushforward(rep[parent], parent, child)
        reps.append(rep)
    return charts, atoms, reps


def _phi_atoms(problem, degree):
    """Unknown atoms (chart, slot, tangential exponent) for one order step."""
    S = problem.submanifold
    atoms = []
    for name in S.present_charts():
        tvars = S.tangential[name]
        for a in range(S.codim):
            for e_t in sorted(_simplex(len(tvars), degree),
                              key=lambda t: (sum(t), t)):
                atoms.append((name, a, e_t))
    return atoms


def _weight_atoms(descriptor, p: int, weight: int):
    """Monomial atoms of the given weight for term degree p (single chart)."""
    chart = descriptor.space.charts[0]
    n = len(chart.vars)
    atoms = []
    if "nor" in descriptor.parts:
        S = descriptor.submanifold
        tvars = S.tangential[chart.name]
        tidx = [chart.vars.index(v) for v in tvars]
        for a in range(S.codim):
            for idx in combinations(range(n), p):
                need = weight + p
                if need < 0:
                    continue
                for e_t in _simplex(len(tvars), need):
                    if sum(e_t) != need:
                        continue
                    e = [0] * n
                    for pos, x in zip(tidx, e_t):
                        e[pos] = x
                    atoms.append(("nor", a, idx, tuple(e)))
    if "amb" in descriptor.parts:
        deg = p if descriptor.kind == "linebundle" else p + 2
        if deg <= n:
            for idx in combinations(range(n), deg):
                need = weight + deg
                if need < 0:
                    continue
                for e in _simplex(n, need):
                    if sum(e) != need:
                        continue
                    atoms.append(("amb", None, idx, tuple(e)))
    return atoms


def _enumeration_atoms(kind, manifold, submanifold, bound, amb_bound):
    atoms = []
    if kind in ("hilb", "exthilb"):
        S = submanifold
        for name in S.present_charts():
            tang = S.tangential[name]
            for slot in range(S.codim):
                for e in sorted(_simplex(len(tang), bound)):
                    atoms.append(("chi", name, slot, e))
    if kind in ("def", "exthilb"):
        space = manifold.space
        for name in space.chart_names:
            cvars = space.chart(name).vars
            n = len(cvars)
            for fi in range(n):
                for fj in range(fi + 1, n):
                    for e in sorted(_simplex(n, amb_bound)):
                        atoms.append(("amb", name, (fi, fj), e))
    return atoms


def monomial_probes(self, p: int, degree: int):
    """Single-monomial cochains of coefficient degree <= degree."""
    if "nor" in self.parts:
        S = self.submanifold
        for name in S.present_charts():
            chart = self.space.chart(name)
            tvars = S.tangential[name]
            tidx = [chart.vars.index(v) for v in tvars]
            for a in range(S.codim):
                for idx in combinations(range(len(chart.vars)), p):
                    for e_t in _simplex(len(tvars), degree):
                        e = [0] * len(chart.vars)
                        for pos, x in zip(tidx, e_t):
                            e[pos] = x
                        pv = Polyvector(chart.vars, p, {
                            idx: LaurentPoly.monomial(chart.vars, e)})
                        z = self.zero_cochain(p)
                        z["nor"][name][a] = pv
                        yield z
    if "amb" in self.parts:
        deg = p if self.kind == "linebundle" else p + 2
        for chart in self.space.charts:
            n = len(chart.vars)
            if deg > n:
                continue
            for idx in combinations(range(n), deg):
                for e in _simplex(n, degree):
                    pv = Polyvector(chart.vars, deg, {
                        idx: LaurentPoly.monomial(chart.vars, e)})
                    z = self.zero_cochain(p)
                    z["amb"][chart.name] = pv
                    yield z


# ----------------------------------------------------------------------
# Translation of the old atoms to coordinate keys
# ----------------------------------------------------------------------

def _full(S, name, e_t):
    cvars = S.space.chart(name).vars
    e = [0] * len(cvars)
    for v, x in zip(S.tangential[name], e_t):
        e[cvars.index(v)] = x
    return tuple(e)


def _only_key(cochain):
    (key, value), = cochain_vector_entries(cochain)
    assert value == Fraction(1)
    return key


def _section_keys(part, root, atoms):
    if part == "nor":
        return [("nor", root, a, idx, e) for a, idx, e in atoms]
    return [("amb", root, idx, e) for _, idx, e in atoms]


def _weight_keys(root, atoms):
    return [("nor", root, a, idx, e) if part == "nor"
            else ("amb", root, idx, e) for part, a, idx, e in atoms]


def _enumeration_keys(S, atoms):
    return {("nor", name, slot, (), _full(S, name, e)) if tag == "chi"
            else ("amb", name, slot, e) for tag, name, slot, e in atoms}


# ----------------------------------------------------------------------
# The complexes
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def subs(p3_hyperplane_sub, p3_line_sub, p2_curve_sub):
    return {"p3_hyperplane": p3_hyperplane_sub, "p3_line": p3_line_sub,
            "p2_extended": p2_curve_sub,
            "f1_section": build_fm_section(1, structured=True)[1]}


def _descriptors(S):
    return [build_complex("normal", submanifold=S),
            build_complex("extended", submanifold=S),
            build_complex("bivector", manifold=S.manifold)]


def _atoms(desc, p, bound, amb_bound=None):
    return [atom for part in desc.parts
            for atom in monomial_atoms(
                desc, part, p, desc.part_charts(part),
                bound if part == "nor" or amb_bound is None else amb_bound)]


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

def test_section_atoms_match_the_section_search(subs):
    """Same sequence, and at p = 0, the degree of the section search, the
    same transported representatives: `chunk` of the search's moved
    entries."""
    for S in subs.values():
        for desc in _descriptors(S):
            for part in desc.parts:
                for p in (0, 1):
                    for bound in BOUNDS:
                        charts, atoms, reps = _atom_sections(desc, part, p,
                                                             bound)
                        assert complexes._section_tree(desc,
                                                       part)[0] == charts
                        new = monomial_atoms(desc, part, p, charts[:1], bound)
                        assert new == _section_keys(part, charts[0], atoms)
                        if p:
                            continue
                        moved = {}
                        complexes._sections_and_next_dimension(
                            desc, part, bound, moved)
                        assert [{c: desc.chunk(part, c, 0, entries)
                                 for c, entries in moved[atom].items()}
                                for atom in new] == reps


def test_step_atoms_match_the_solver_step(subs):
    for S in subs.values():
        desc = build_complex("normal", submanifold=S)
        for bound in BOUNDS:
            old = [("nor", name, a, (), _full(S, name, e_t))
                   for name, a, e_t in _phi_atoms(desc, bound)]
            assert monomial_atoms(desc, "nor", 0, S.present_charts(),
                                  bound) == old


def test_weight_atoms_match_the_graded_engine(subs, c3):
    """Fixed weight on the first chart; c3 is the single-chart case."""
    for S in [*subs.values(), c3[1]]:
        for desc in _descriptors(S):
            root = desc.space.chart_names[0]
            for p in (0, 1, 2):
                for weight in range(-3, 4):
                    assert complexes._weight_atoms(desc, p, weight) == \
                        _weight_keys(root, _weight_atoms(desc, p, weight))


def test_enumeration_atoms_match_the_small_ring_enumeration(subs):
    kinds = {"hilb": "normal", "exthilb": "extended", "def": "bivector"}
    for S in subs.values():
        for kind, complex_kind in kinds.items():
            desc = (build_complex("bivector", manifold=S.manifold)
                    if kind == "def" else
                    build_complex(complex_kind, submanifold=S))
            for bound in BOUNDS:
                old = _enumeration_atoms(kind, S.manifold, S, bound,
                                         bound + 2)
                new = _atoms(desc, 0, bound, bound + 2)
                assert len(new) == len(old)
                assert set(new) == _enumeration_keys(S, old)


def test_probes_match_the_square_zero_probes(subs):
    for S in subs.values():
        for desc in _descriptors(S):
            for p in (0, 1):
                for bound in BOUNDS:
                    old = [_only_key(z) for z in monomial_probes(desc, p,
                                                                 bound)]
                    new = list(conftest.monomial_probes(desc, p, bound))
                    assert len(new) == len(old)
                    assert set(map(_only_key, new)) == set(old)
                    assert all(sorted(z) == sorted(desc.zero_cochain(p))
                               for z in new)


def test_atom_cochain_holds_its_key(subs):
    for S in subs.values():
        for desc in _descriptors(S):
            for atom in _atoms(desc, 1, 2):
                assert _only_key(atom_cochain(desc, 1, atom)) == atom
