"""The one differential body of `ComplexDescriptor` against the bodies it
replaced.

The replaced `differential`, `_d_normal` and `_structure_weight` are kept
below verbatim, on a subclass so that `self._d_normal` resolves, and the new
body must match them on random cochains of all four kinds at p = 0, 1 and 2:
the same parts in the same order, the same charts in the same order, and
the same polyvectors, term by term in the same order. The old bodies raise
KeyError when a normal part is given but misses a present chart that the
ambient part holds, and the normal kind always carries a non-empty normal
part, so the random cochains stay inside that domain.

The one body as it was before the index rules, through `schouten`,
`restrict` and `wedge`, is kept verbatim too, on `BodyDescriptor`. The
rules must match it the same way on every cochain: a normal part may leave
out a chart that the ambient part holds, and a negative normal power must
raise NegativePowerAtZero with the same message.
Both take their wedges by `conftest.wedge`, the one wedge rule, which
`test_exact_core_oracle.py` compares with the polyvector wedge as it was.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import monomial_probes, wedge
from poissondef.complexes import (KINDS, ComplexDescriptor,
                                  _structure_weight, build_complex)
from poissondef.errors import InconsistentData, NegativePowerAtZero
from poissondef.geometry import codim1_line_bundle
from poissondef.polyvector import Polyvector, restrict, schouten
from poissondef.symbolic import LaurentPoly


# ----------------------------------------------------------------------
# The replaced bodies, verbatim
# ----------------------------------------------------------------------

class OldDescriptor(ComplexDescriptor):
    def differential(self, cochain: dict, p: int) -> dict:
        if self.kind == "normal":
            return {"nor": self._d_normal(cochain["nor"], p)}
        if self.kind == "extended":
            amb = cochain.get("amb", {})
            nor_in = cochain.get("nor", {})
            S = self.submanifold
            amb_out = {}
            for name, pv in amb.items():
                amb_out[name] = -schouten(pv, self.manifold.bivector(name))
            nor_out = self._d_normal(nor_in, p) if nor_in else {
                name: [Polyvector.zero(self.space.chart(name).vars, p + 1)
                       for _ in range(S.codim)]
                for name in S.present_charts()}
            for name in S.present_charts():
                pv = amb.get(name)
                if pv is None:
                    continue
                w = S.normal[name]
                chart_vars = self.space.chart(name).vars
                for a, wv in enumerate(w):
                    coupling = restrict(
                        schouten(pv, Polyvector.from_function(
                            LaurentPoly.variable(chart_vars, wv))), w)
                    nor_out[name][a] = (nor_out[name][a] + coupling
                                        if p % 2 == 0 else
                                        nor_out[name][a] - coupling)
            return {"amb": amb_out, "nor": nor_out}
        if self.kind == "linebundle":
            lb = self.linebundle
            out = {}
            for name, pv in cochain["amb"].items():
                t_full = lb.fields[name]
                term = -schouten(pv, self.manifold.bivector(name))
                tw = wedge(pv, t_full)
                out[name] = term + tw if p % 2 == 0 else term - tw
            return {"amb": out}
        if self.kind == "bivector":
            return {"amb": {name: -schouten(pv, self.manifold.bivector(name))
                            for name, pv in cochain["amb"].items()}}
        raise InconsistentData(f"unknown complex kind {self.kind!r}")

    def _d_normal(self, nor: dict, p: int) -> dict:
        S = self.submanifold
        out = {}
        for name, tup in nor.items():
            w = S.normal[name]
            T0 = S.structure_fields_restricted(name)
            lam = self.manifold.bivector(name)
            row = []
            for a in range(S.codim):
                val = -restrict(schouten(tup[a], lam), w)
                for b in range(S.codim):
                    tw = wedge(tup[b], T0[a][b])
                    val = val + tw if p % 2 == 0 else val - tw
                row.append(val)
            out[name] = row
        return out


class BodyDescriptor(ComplexDescriptor):
    def differential(self, cochain: dict, p: int) -> dict:
        """d of a degree-p cochain, by the one formula of the module
        docstring. A cochain with no normal part starts from zero normal
        outputs on every present chart; one whose normal part leaves out a
        present chart that its ambient part holds starts that chart from
        zero before the coupling."""
        if self.kind not in KINDS:
            raise InconsistentData(f"unknown complex kind {self.kind!r}")
        S, even, parts = self.submanifold, p % 2 == 0, self.parts
        out = {}
        for part in ("amb", "nor"):
            if part not in parts:
                continue
            given = cochain.get(part, {})
            res = out[part] = {} if given or part == "amb" else {
                name: self.zero_chunk(part, name, p + 1)
                for name in S.present_charts()}
            for name, chunk in given.items():
                lam = self.manifold.bivector(name)
                twist = self.twist(part, name)
                pvs = chunk if part == "nor" else (chunk,)
                vals = []
                for a, pv in enumerate(pvs):
                    val = schouten(pv, lam)
                    val = -(restrict(val, S.normal[name]) if part == "nor"
                            else val)
                    if twist:
                        for b, pb in enumerate(pvs):
                            tw = wedge(pb, twist[a][b])
                            val = val + tw if even else val - tw
                    vals.append(val)
                res[name] = vals if part == "nor" else vals[0]
            if part == "nor" and "amb" in parts:
                for name, pv in cochain.get("amb", {}).items():
                    w = S.normal[name]
                    if w and name not in res:
                        res[name] = self.zero_chunk(part, name, p + 1)
                    for a, wv in enumerate(w or ()):
                        wa = Polyvector.from_function(
                            LaurentPoly.variable(pv.vars, wv))
                        coupling = restrict(schouten(pv, wa), w)
                        res[name][a] = (res[name][a] + coupling if even
                                        else res[name][a] - coupling)
        return out


def old_structure_fields_restricted(S, chart: str):
    w = S.normal[chart]
    return [[restrict(entry, w) for entry in row]
            for row in S.structure_fields[chart]]


def old_structure_weight(descriptor: ComplexDescriptor):
    """Common weight (coefficient degree minus frame degree) of the structure
    terms; None when the structure is not weight-homogeneous."""
    weights = set()
    for name in descriptor.space.chart_names:
        pv = descriptor.manifold.bivector(name)
        for idx, coeff in pv.terms.items():
            for e in coeff.terms:
                weights.add(sum(e) - 2)
    if descriptor.kind == "linebundle":
        for pv in descriptor.linebundle.fields.values():
            for idx, coeff in pv.terms.items():
                for e in coeff.terms:
                    weights.add(sum(e) - 1)
    if descriptor.kind in ("normal", "extended"):
        S = descriptor.submanifold
        for name in S.present_charts():
            for row in old_structure_fields_restricted(S, name):
                for pv in row:
                    for idx, coeff in pv.terms.items():
                        for e in coeff.terms:
                            weights.add(sum(e) - 1)
    if not weights:
        return 0, True
    if len(weights) == 1:
        return weights.pop(), True
    return max(weights), False


# ----------------------------------------------------------------------
# Every descriptor kind
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def descriptors(square_zero_family, c2):
    out = dict(square_zero_family)
    out["c2_linebundle"] = build_complex("linebundle",
                                         linebundle=codim1_line_bundle(c2[1]))
    assert {d.kind for d in out.values()} == {"normal", "extended",
                                              "bivector", "linebundle"}
    return out


def _old(desc):
    return OldDescriptor(desc.kind, desc.manifold, desc.submanifold,
                            desc.linebundle)


coeffs = st.integers(min_value=-3, max_value=3).filter(bool).map(
    lambda c: Fraction(c, 2))


def _polyvector(data, cvars, degree, normal, top, low=0):
    """A sparse random polyvector with exponents in -1..2, except along the
    `normal` variables, where they lie in low..top: at low = 0 restricting
    to the submanifold needs no negative normal power."""
    frames = list(combinations(range(len(cvars)), degree))
    if not frames or not data.draw(st.booleans()):
        return Polyvector.zero(cvars, degree)
    exps = st.tuples(*[st.integers(min_value=low, max_value=top)
                       if v in normal
                       else st.integers(min_value=-1, max_value=2)
                       for v in cvars])
    terms = data.draw(st.dictionaries(
        st.sampled_from(frames),
        st.dictionaries(exps, coeffs, min_size=1, max_size=3),
        min_size=1, max_size=2))
    return Polyvector(cvars, degree, {idx: LaurentPoly(cvars, mono)
                                      for idx, mono in terms.items()})


def _charts(data, names):
    return [name for name in names if data.draw(st.booleans())]


def _cochain(data, desc, p, anywhere=False):
    """A degree-p cochain of desc inside the replaced bodies' domain, or,
    when anywhere, any cochain, with negative normal powers in about half of
    them."""
    parts = data.draw(st.sampled_from((desc.parts, desc.parts[:1],
                                       desc.parts[1:])) if len(desc.parts) > 1
                      else st.just(desc.parts))
    charts = {part: _charts(data, desc.part_charts(part)) for part in parts}
    low = -data.draw(st.integers(0, 1)) if anywhere else 0
    if desc.kind == "normal" and not charts["nor"] and not anywhere:
        charts["nor"] = list(desc.part_charts("nor"))[:1]
    if "amb" in charts and charts.get("nor") and not anywhere:
        charts["amb"] = [name for name in charts["amb"]
                         if desc.submanifold.normal[name] is None
                         or name in charts["nor"]]
    out = {}
    for part in parts:
        out[part] = {}
        for name in charts[part]:
            cvars = desc.space.chart(name).vars
            # normal parts are constant along the normal directions
            normal = (desc.submanifold.normal.get(name) or ()
                      if desc.submanifold else ())
            pvs = [_polyvector(data, cvars, desc.term_degree(part, p), normal,
                               0 if part == "nor" else 2, low)
                   for _ in range(desc.submanifold.codim if part == "nor"
                                  else 1)]
            out[part][name] = pvs if part == "nor" else pvs[0]
    return out


def _shape(cochain):
    """Parts, charts, slots and terms of a cochain, each in its order."""
    def pv_shape(pv):
        return (pv.vars, pv.degree, [(idx, list(coeff.terms.items()))
                                     for idx, coeff in pv.terms.items()])
    return [(part, [(name, [pv_shape(pv) for pv in chunk]
                     if isinstance(chunk, list) else pv_shape(chunk))
                    for name, chunk in per.items()])
            for part, per in cochain.items()]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_differential_matches_the_replaced_bodies(descriptors, data):
    desc = descriptors[data.draw(st.sampled_from(sorted(descriptors)))]
    p = data.draw(st.sampled_from((0, 1, 2)))
    cochain = _cochain(data, desc, p)
    assert _shape(desc.differential(cochain, p)) == _shape(
        _old(desc).differential(cochain, p))


def test_kept_rows_and_weights_match_the_replaced_bodies(descriptors):
    for name, desc in sorted(descriptors.items()):
        weight, homogeneous = old_structure_weight(desc)
        if homogeneous:
            assert _structure_weight(desc) == weight, name
        else:
            with pytest.raises(InconsistentData,
                               match="not weight-homogeneous"):
                _structure_weight(desc)
        S = desc.submanifold
        if S is None:
            continue
        for chart in S.present_charts():
            kept = S.structure_fields_restricted(chart)
            assert kept is S.structure_fields_restricted(chart)
            assert type(kept) is tuple
            assert all(type(row) is tuple for row in kept)
            assert [list(row) for row in kept] == (
                old_structure_fields_restricted(S, chart))


# ----------------------------------------------------------------------
# The index rules against the body through schouten, restrict and wedge
# ----------------------------------------------------------------------

def _body(desc):
    return BodyDescriptor(desc.kind, desc.manifold, desc.submanifold,
                          desc.linebundle)


def _outcome(desc, cochain, p):
    """The shape of d(cochain), or the message of the NegativePowerAtZero
    it raises."""
    try:
        return _shape(desc.differential(cochain, p))
    except NegativePowerAtZero as exc:
        return "NegativePowerAtZero", str(exc)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_index_rules_match_the_schouten_body(descriptors, data):
    desc = descriptors[data.draw(st.sampled_from(sorted(descriptors)))]
    p = data.draw(st.sampled_from((0, 1, 2)))
    cochain = _cochain(data, desc, p, anywhere=True)
    assert _outcome(desc, cochain, p) == _outcome(_body(desc), cochain, p)


@pytest.mark.parametrize("kind, p, part", [
    ("normal", 0, "nor"), ("normal", 1, "nor"), ("extended", 1, "nor"),
    ("extended", 1, "amb")])
def test_negative_normal_power_raises_as_set_zero_does(p3_hyperplane_sub,
                                                       kind, p, part):
    desc = build_complex(kind, submanifold=p3_hyperplane_sub)
    cvars = desc.space.chart("U0").vars
    z1, z3 = (LaurentPoly.variable(cvars, v) for v in ("z1", "z3"))
    degree = desc.term_degree(part, p)
    pv = Polyvector(cvars, degree, {tuple(range(degree)): 3 * z1 ** 2
                                    * z3 ** -1})
    chunk = [pv] if part == "nor" else pv
    outcome = _outcome(desc, {part: {"U0": chunk}}, p)
    assert outcome == _outcome(_body(desc), {part: {"U0": chunk}}, p)
    assert outcome[0] == "NegativePowerAtZero"
    assert outcome[1].startswith("cannot set ('z3',) to zero in ")
    assert "z1^2*z3^-1" in outcome[1]


@pytest.mark.parametrize("p", (0, 1, 2))
def test_a_normal_part_may_leave_out_a_chart_the_ambient_part_holds(
        square_zero_family, p):
    desc = square_zero_family["p3_hyperplane_extended"]
    cochain = {}
    for part, names in (("nor", ("U1",)), ("amb", ("U3", "U0", "U2"))):
        cochain[part] = {}
        for name in names:
            cvars = desc.space.chart(name).vars
            degree = desc.term_degree(part, p)
            pvs = [Polyvector(cvars, degree, {
                idx: LaurentPoly(cvars, {(1, 0, 0): 1, (0, 2, 1): -2,
                                         (0, 0, 2): Fraction(1, 2)})
                for idx in list(combinations(range(3), degree))[:2]})
                for _ in range(desc.submanifold.codim if part == "nor"
                               else 1)]
            cochain[part][name] = pvs if part == "nor" else pvs[0]
    new = desc.differential(cochain, p)
    assert list(new["nor"]) == ["U1", "U0", "U2"]
    assert _shape(new) == _shape(_body(desc).differential(cochain, p))


def test_rules_are_kept_per_degree(descriptors):
    """One descriptor applied at p, at p + 1 and at p again gives what a
    fresh descriptor gives each time."""
    compared = 0
    for name, kept in sorted(descriptors.items()):
        desc = ComplexDescriptor(kept.kind, kept.manifold, kept.submanifold,
                                 kept.linebundle)
        for p in (0, 1):
            probes = {q: list(monomial_probes(desc, q, 2))[:6]
                      for q in (p, p + 1)}
            for q in (p, p + 1, p):
                for probe in probes[q]:
                    fresh = ComplexDescriptor(kept.kind, kept.manifold,
                                              kept.submanifold,
                                              kept.linebundle)
                    assert _shape(desc.differential(probe, q)) == _shape(
                        fresh.differential(probe, q)), (name, q)
                    compared += 1
    assert compared > 200
