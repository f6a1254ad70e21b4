"""The cochain helpers of `complexes` against the ones they replaced.

A chart's chunk of a cochain part is a list of r polyvectors (normal) or
one polyvector (ambient). Each helper below used to branch on that shape
itself; they now read chunks through `complexes._slots`, `_chunk_map` and
`chunk_entries`. The replaced helpers are kept here verbatim as oracles,
the way `test_symbolic` keeps the Fraction-only core, and compared with
the new ones on random cochains of every descriptor kind.
`cochain_vector_entries` is compared as a dict: its stream order within a
chunk may change, its keys and values may not. `cochain_add` and
`cochain_scale` are gone: `cochain_lincomb` now sums raw terms itself and
is compared here with the oldest lincomb, built from them, chart order
included, while the old add and scale still build the zero test's
cochains. The old add takes a part's charts in first-seen order, as
`cochain_lincomb` does, not in the set order that followed string hashing.
`tests/test_raw_cochain_forms.py` compares it with the parent's lincomb,
term order and scalar types included.

Normal tuples used to move by pushing each slot forward, restricting it and
summing Polyvectors against the first-order matrix; they now move as
entries through `_move_entries` and are rebuilt by `chunk`. The replaced
`transport_nor_tuple` is kept verbatim too, but for the body of the
deleted `SubmanifoldData.push_restrict` in place of its call.
"""

from fractions import Fraction
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import build_fm_section
from poissondef.complexes import (_sections_and_next_dimension, build_complex,
                                  chunk_entries, cochain_is_zero,
                                  cochain_lincomb, cochain_vector_entries,
                                  transport_nor_tuple)
from poissondef.dsl import parse
from poissondef.errors import NegativePowerAtZero, NonInvertibleSubstitution
from poissondef.geometry import codim1_line_bundle
from poissondef.linalg import nullspace, rank
from poissondef.polyvector import Polyvector, restrict
from poissondef.symbolic import LaurentPoly
from test_monomial_atoms import _atom_sections


# ----------------------------------------------------------------------
# The replaced helpers, verbatim
# ----------------------------------------------------------------------

def old_cochain_add(a: dict, b: dict) -> dict:
    out = {}
    if "amb" in a or "amb" in b:
        out["amb"] = {}
        for c in dict.fromkeys([*a.get("amb", {}), *b.get("amb", {})]):
            x, y = a.get("amb", {}).get(c), b.get("amb", {}).get(c)
            out["amb"][c] = x + y if (x is not None and y is not None) else (x if y is None else y)
    if "nor" in a or "nor" in b:
        out["nor"] = {}
        for c in dict.fromkeys([*a.get("nor", {}), *b.get("nor", {})]):
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


def old_transport_nor_tuple(S, tup, src: str, dst: str):
    """Identify a chart-src normal tuple on chart dst (first-order matrix
    times the pushed-forward components)."""
    F = S.moved_first_order(dst, src)
    moved = [restrict(S.space.pushforward(pv, src, dst), S.normal[dst])
             for pv in tup]
    chart_vars = S.space.chart(dst).vars
    out = []
    for row in F:
        acc = Polyvector.zero(chart_vars, moved[0].degree)
        for coeff, pv in zip(row, moved):
            acc = acc + coeff * pv
        out.append(acc)
    return out


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
def test_lincomb_matches_the_replaced_helper(descriptors, data):
    cochains = _draw(data, descriptors, 3)
    vec = data.draw(st.lists(coeffs, min_size=3, max_size=3))
    new, old = cochain_lincomb(vec, cochains), old_cochain_lincomb(vec, cochains)
    assert new == old
    assert [(part, list(new[part])) for part in new] == [
        (part, list(old[part])) for part in old]


@SETTINGS
@given(st.data())
def test_zero_test_matches_the_replaced_helper(descriptors, data):
    (a,) = _draw(data, descriptors, 1)
    zero = old_cochain_add(a, old_cochain_scale(a, -1))
    for c in (a, zero, old_cochain_scale(a, 0)):
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
    """The sections summed from moved entries are the ones of the eager
    search, kept verbatim in `test_monomial_atoms`, that transports every
    atom's representative and reads its columns off them."""
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
                desc, part, bound, {})
            assert new == old
            assert next_dimension == len(columns) - rank(columns)


# ----------------------------------------------------------------------
# Normal transport as entries, and the chunk builder
# ----------------------------------------------------------------------

# A plane bundle over P1 whose second normal coordinate is sheared by the
# first: its first-order matrices [[1, 0], [y^-1, 1]] and [[1, 0], [-x, 1]]
# are not symmetric.
SHEARED_PLANE = """
manifold sheared_plane_bundle;
chart A vars x p q;
chart B vars y u v;
transition A -> B: x = y^-1, p = u, q = y^-1 * u + v;
transition B -> A: y = x^-1, u = p, v = q - x * p;
submanifold normal A: [p, q];
submanifold normal B: [u, v];
"""


@pytest.fixture(scope="module")
def transport_subs(p2_curve_sub, p3_hyperplane_sub, p3_line_sub):
    """Submanifolds of P2, P3 (codimension one and two), F1, F2 and the two
    sheared atlases, whose transitions compile no monomial map."""
    return {"p2_curve": p2_curve_sub, "p3_hyperplane": p3_hyperplane_sub,
            "p3_line": p3_line_sub,
            "f1_section": build_fm_section(1, structured=True)[1],
            "f2_section": build_fm_section(2, structured=False)[1],
            "sheared": parse(SHEARED).submanifold(),
            "sheared_plane": parse(SHEARED_PLANE).submanifold()}


def _normal_tuple(data, S, name):
    """A random degree 0-2 normal tuple on chart name: tangential exponents
    from -2 to 2, normal ones mostly 0, sometimes 1, 2 or -1."""
    cvars = S.space.chart(name).vars
    degree = data.draw(st.integers(min_value=0, max_value=2))
    exps = st.tuples(*[
        st.sampled_from((0, 0, 0, 0, 1, 2, -1)) if v in S.normal[name]
        else st.integers(min_value=-2, max_value=2) for v in cvars])
    frames = list(combinations(range(len(cvars)), degree))
    tup = []
    for _ in range(S.codim):
        terms = data.draw(st.dictionaries(
            st.sampled_from(frames),
            st.dictionaries(exps, coeffs, max_size=3), max_size=2))
        tup.append(Polyvector(cvars, degree, {
            idx: LaurentPoly(cvars, mono) for idx, mono in terms.items()}))
    return tup


def _outcome(transport, *args):
    """The moved tuple, or the type and message of the error it raised: a
    negative normal power left on the submanifold, or, on the sheared
    atlas, a negative power of a sum."""
    try:
        return transport(*args)
    except (NegativePowerAtZero, NonInvertibleSubstitution) as e:
        return type(e).__name__, str(e)


# fewer examples: these two tests stay under 2 s together
SHORT = settings(SETTINGS, max_examples=80)


@SHORT
@given(st.data())
def test_normal_transport_matches_the_replaced_one(transport_subs, data):
    S = transport_subs[data.draw(st.sampled_from(sorted(transport_subs)))]
    src, dst = data.draw(st.sampled_from(sorted(S.first_order)))
    tup = _normal_tuple(data, S, src)
    assert (_outcome(transport_nor_tuple, S, tup, src, dst)
            == _outcome(old_transport_nor_tuple, S, tup, src, dst))


def test_normal_transport_raises_as_the_replaced_one(transport_subs):
    """A negative normal power that survives the move is refused alike."""
    S = transport_subs["p3_line"]
    src, dst = min(S.first_order)
    cvars = S.space.chart(src).vars
    e = [1] * len(cvars)
    e[cvars.index(S.normal[src][0])] = -1
    tup = [Polyvector.from_function(LaurentPoly.monomial(cvars, e)),
           Polyvector.zero(cvars, 0)]
    new = _outcome(transport_nor_tuple, S, tup, src, dst)
    assert new[0] == "NegativePowerAtZero"
    assert new == _outcome(old_transport_nor_tuple, S, tup, src, dst)


@SHORT
@given(st.data())
def test_chunk_rebuilds_its_entries(descriptors, data):
    desc = descriptors[data.draw(st.sampled_from(sorted(descriptors)))]
    p = data.draw(st.sampled_from((0, 1)))
    for part, chunks in _cochain(data, desc, p).items():
        for name, chunk in chunks.items():
            entries = dict(chunk_entries(part, chunk))
            assert desc.chunk(part, name, p, entries) == chunk
