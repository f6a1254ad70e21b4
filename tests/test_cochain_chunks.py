"""The cochain helpers of `complexes` against the ones they replaced.

A chart's chunk of a cochain part is a list of r polyvectors (normal) or
one polyvector (ambient). Each helper below used to branch on that shape
itself; they now read chunks through `complexes._slots`, `_chunk_map` and
`chunk_entries`. The replaced helpers are kept here verbatim as oracles,
the way `test_symbolic` keeps the Fraction-only core, and compared with
the new ones on random cochains of every descriptor kind.
`cochain_vector_entries` is compared as a dict: its stream order within a
chunk may change, its keys and values may not.
"""

from fractions import Fraction
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from poissondef.complexes import (_atom_sections,
                                  _sections_and_next_dimension, build_complex,
                                  chunk_entries, cochain_add,
                                  cochain_is_zero, cochain_lincomb,
                                  cochain_scale, cochain_vector_entries)
from poissondef.dsl import parse
from poissondef.geometry import codim1_line_bundle
from poissondef.linalg import nullspace, rank
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly


# ----------------------------------------------------------------------
# The replaced helpers, verbatim
# ----------------------------------------------------------------------

def old_cochain_add(a: dict, b: dict) -> dict:
    out = {}
    if "amb" in a or "amb" in b:
        out["amb"] = {}
        for c in set(a.get("amb", {})) | set(b.get("amb", {})):
            x, y = a.get("amb", {}).get(c), b.get("amb", {}).get(c)
            out["amb"][c] = x + y if (x is not None and y is not None) else (x if y is None else y)
    if "nor" in a or "nor" in b:
        out["nor"] = {}
        for c in set(a.get("nor", {})) | set(b.get("nor", {})):
            x, y = a.get("nor", {}).get(c), b.get("nor", {}).get(c)
            if x is None:
                out["nor"][c] = list(y)
            elif y is None:
                out["nor"][c] = list(x)
            else:
                out["nor"][c] = [u + v for u, v in zip(x, y)]
    return out


def old_cochain_scale(a: dict, s) -> dict:
    out = {}
    if "amb" in a:
        out["amb"] = {c: v * s for c, v in a["amb"].items()}
    if "nor" in a:
        out["nor"] = {c: [v * s for v in tup] for c, tup in a["nor"].items()}
    return out


def old_cochain_lincomb(coeffs: Iterable[Fraction], cochains: Iterable[dict]) -> dict:
    acc = None
    for s, c in zip(coeffs, cochains):
        if not s:
            continue
        piece = old_cochain_scale(c, s)
        acc = piece if acc is None else old_cochain_add(acc, piece)
    if acc is not None:
        return acc
    first = next(iter(cochains), None)
    return old_cochain_scale(first, 0) if first else {}


def old_cochain_is_zero(a: dict) -> bool:
    for v in a.get("amb", {}).values():
        if not v.is_zero():
            return False
    for tup in a.get("nor", {}).values():
        if any(not v.is_zero() for v in tup):
            return False
    return True


def old_cochain_vector_entries(a: dict):
    """Deterministic (key, Fraction) stream for linearization."""
    for c in sorted(a.get("amb", {})):
        pv = a["amb"][c]
        for idx, coeff in pv.sorted_terms():
            for e, val in coeff.sorted_terms():
                yield ("amb", c, idx, e), val
    for c in sorted(a.get("nor", {})):
        for slot, pv in enumerate(a["nor"][c]):
            for idx, coeff in pv.sorted_terms():
                for e, val in coeff.sorted_terms():
                    yield ("nor", c, slot, idx, e), val


def old_holomorphy_columns(charts, reps, is_nor: bool):
    """One column per atom: its coefficients of negative-exponent monomials
    across charts."""
    maps = []
    for rep in reps:
        m = {}
        for cname in charts:
            data = rep[cname]
            items = (enumerate(data) if is_nor else [(0, data)])
            for slot, pv in items:
                for idx, coeff in pv.terms.items():
                    for e, val in coeff.terms.items():
                        if min(e) < 0:
                            m[(cname, slot, idx, e)] = val
        maps.append(m)
    return maps


# ----------------------------------------------------------------------
# Random cochains of every descriptor kind
# ----------------------------------------------------------------------

KINDS = ("c3_normal", "p3_hyperplane_normal", "p3_line_normal",
         "p2_extended", "f1_extended", "f2_bivector")


@pytest.fixture(scope="module")
def descriptors(descriptor_family, c2):
    out = {name: descriptor_family[name] for name in KINDS}
    out["c2_linebundle"] = build_complex("linebundle",
                                         linebundle=codim1_line_bundle(c2[1]))
    assert {d.kind for d in out.values()} == {"normal", "extended",
                                              "bivector", "linebundle"}
    return out


coeffs = st.integers(min_value=-3, max_value=3).map(lambda c: Fraction(c, 2))


def _polyvector(data, cvars, degree):
    n = len(cvars)
    frames = list(combinations(range(n), degree))
    if not frames or not data.draw(st.booleans()):
        return Polyvector.zero(cvars, degree)
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    terms = data.draw(st.dictionaries(
        st.sampled_from(frames),
        st.dictionaries(exps, coeffs, max_size=3), max_size=2))
    return Polyvector(cvars, degree, {idx: LaurentPoly(cvars, mono)
                                      for idx, mono in terms.items()})


def _cochain(data, desc, p):
    """A degree-p cochain of desc: each part and each chart chunk present or
    not, each slot a random sparse polyvector, possibly zero."""
    out = {}
    for part in desc.parts:
        if not data.draw(st.booleans()):
            continue
        out[part] = {}
        for name in desc.part_charts(part):
            if not data.draw(st.booleans()):
                continue
            cvars = desc.space.chart(name).vars
            deg = desc.term_degree(part, p)
            pvs = [_polyvector(data, cvars, deg)
                   for _ in range(desc.submanifold.codim if part == "nor"
                                  else 1)]
            out[part][name] = pvs if part == "nor" else pvs[0]
    return out


def _draw(data, descriptors, count):
    desc = descriptors[data.draw(st.sampled_from(sorted(descriptors)))]
    p = data.draw(st.sampled_from((0, 1)))
    return [_cochain(data, desc, p) for _ in range(count)]


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


@SETTINGS
@given(st.data())
def test_add_and_scale_match_the_replaced_helpers(descriptors, data):
    a, b = _draw(data, descriptors, 2)
    s = data.draw(coeffs)
    assert cochain_add(a, b) == old_cochain_add(a, b)
    assert cochain_scale(a, s) == old_cochain_scale(a, s)
    for new, old in ((cochain_add(a, b), old_cochain_add(a, b)),
                     (cochain_scale(a, s), old_cochain_scale(a, s))):
        assert ({c: type(v) for c, v in new.get("nor", {}).items()}
                == {c: type(v) for c, v in old.get("nor", {}).items()})


@SETTINGS
@given(st.data())
def test_lincomb_matches_the_replaced_helper(descriptors, data):
    cochains = _draw(data, descriptors, 3)
    vec = data.draw(st.lists(coeffs, min_size=3, max_size=3))
    assert cochain_lincomb(vec, cochains) == old_cochain_lincomb(vec, cochains)


@SETTINGS
@given(st.data())
def test_zero_test_matches_the_replaced_helper(descriptors, data):
    (a,) = _draw(data, descriptors, 1)
    zero = cochain_add(a, cochain_scale(a, -1))
    for c in (a, zero, cochain_scale(a, 0)):
        assert cochain_is_zero(c) == old_cochain_is_zero(c)
    assert cochain_is_zero(zero)


@SETTINGS
@given(st.data())
def test_vector_entries_match_the_replaced_stream(descriptors, data):
    (a,) = _draw(data, descriptors, 1)
    new = list(cochain_vector_entries(a))
    assert dict(new) == dict(old_cochain_vector_entries(a))
    assert len(new) == len(dict(new))


def test_chunk_entries_key_normal_and_ambient_chunks(descriptors):
    desc = descriptors["p2_extended"]
    nor = desc.zero_chunk("nor", "U0", 0)
    cvars = desc.space.chart("U0").vars
    nor[0] = Polyvector.from_function(LaurentPoly.monomial(cvars, (0, 2), 3))
    assert list(chunk_entries("nor", nor)) == [((0, (), (0, 2)), 3)]
    amb = Polyvector(cvars, 2, {(0, 1): LaurentPoly.monomial(cvars, (1, -1))})
    assert list(chunk_entries("amb", amb)) == [(((0, 1), (1, -1)), 1)]


# ----------------------------------------------------------------------
# Section columns: negative-exponent entries, combined as before
# ----------------------------------------------------------------------

# Every transition moves the fibre coordinate s by a shear, so no pair
# compiles a monomial map and the ambient atoms move through `convert`.
SHEARED = """
manifold sheared_line_bundle;
chart U0 vars z w s;
chart U1 vars y u t;
transition U0 -> U1: z = y^-1, w = y^2 * u, s = t + y;
transition U1 -> U0: y = z^-1, u = z^2 * w, t = s - z^-1;
poisson on U0: w * d/z ^ d/w;
submanifold normal U0: [w];
submanifold normal U1: [u];
"""

# name: coefficient degree bounds; the extended P3 hyperplane reaches the
# bound of the benchmark's section search
SECTION_BOUNDS = {
    "p3_hyperplane_normal": (0, 1, 2), "p3_line_normal": (0, 1, 2),
    "p2_extended": (0, 1, 2), "f1_extended": (0, 1, 2),
    "f2_bivector": (0, 1, 2), "p3_hyperplane_extended": (0, 1, 6),
    "sheared_extended": (0, 1, 2, 3),
}


@pytest.fixture(scope="module")
def section_descriptors(square_zero_family):
    out = dict(square_zero_family)
    doc = parse(SHEARED)
    assert all(m.mono is None for m in doc.space._moves.values())
    out["sheared_extended"] = build_complex("extended",
                                            submanifold=doc.submanifold())
    return out


@pytest.mark.parametrize("name", sorted(SECTION_BOUNDS))
def test_sections_match_the_replaced_columns(section_descriptors, name):
    """The sections from moved exponents, with representatives built on
    demand, are the ones of the eager search that transports every atom's
    representative and reads its columns off them."""
    desc = section_descriptors[name]
    for part in desc.parts:
        for bound in SECTION_BOUNDS[name]:
            charts, atoms, reps = _atom_sections(desc, part, 0, bound + 1)
            columns = old_holomorphy_columns(charts, reps, part == "nor")
            below = [j for j, atom in enumerate(atoms)
                     if sum(atom[-1]) <= bound]
            kernel = nullspace([columns[j] for j in below])
            old = [old_cochain_lincomb(vec, [{part: reps[j]} for j in below])
                   for vec in kernel]
            new, next_dimension = _sections_and_next_dimension(
                desc, part, bound, {}, {})
            assert new == old
            assert next_dimension == len(columns) - rank(columns)
