"""The command front end against verbatim copies of what it replaced.

Every command parses its file, builds its atlas and its Poisson structure,
and, when the file declares a submanifold, extracts it and certifies its
tensors. Those stages work on the exact core's raw `{idx: {e: c}}` terms.
Kept here as they were before, verbatim but for their names:

- `_tokenize`, which matched one token at a time;
- `polyvector._sort_sign`, which sorted every tuple by its general loop;
- `projective_space` and `hirzebruch`, built through `LaurentPoly.monomial`
  and compiled by `Transition`;
- `Transition._jacobian` and `_build`, which built each frame image as a
  `LaurentPoly` product moved by `convert`;
- `extract_submanifold`, whose division rule added one `Polyvector` per
  term of `schouten(Λ, w_a)`;
- `verify_submanifold_tensors`, through `schouten`, `restrict` and `wedge`
  on `restrict`ed structure rows and polyvector sums; its `wedge` is now
  `conftest.wedge`, and its `push_restrict` the body of that method.

The new stages must give the same tokens, transitions, frame images,
first-order matrices and structure fields, keys, term order and the int or
Fraction type of every coefficient included, and the same certificate
report, or raise the same error with the same message. The inputs are the
shipped files, the `Affine`, product and `shear` atlases of the tests, and
inputs that fail each check: `NotPoissonSubmanifold`,
`NonAdaptedTransition`, a structure with a pole along the normal locus,
and perturbed structure fields and first-order matrices that break a chart
or an overlap identity.

The count tests check that extracting and certifying a shipped submanifold
calls neither `schouten` nor `restrict`, and that two commands on
one file build two atlases and two submanifolds: nothing is kept across
commands.
"""

import re
import sys
from fractions import Fraction
from itertools import combinations, product as _cartesian
from pathlib import Path

import pytest
from hypothesis import given, settings

import poissondef
from conftest import derivative, wedge
from poissondef import dsl, geometry
from poissondef.cli import run_command
from poissondef.dsl import _tokenize, parse
from poissondef.errors import (InconsistentData, NonAdaptedTransition,
                               NotPoissonSubmanifold, ParseError)
from poissondef.geometry import (Chart, ChartedSpace, PoissonManifold,
                                 SubmanifoldData, affine_space,
                                 extract_submanifold, hirzebruch, product,
                                 projective_space, verify_submanifold_tensors)
from poissondef.polyvector import Polyvector, _sort_sign, restrict, schouten
from poissondef.symbolic import LaurentPoly
from test_fuzz import mutated
from test_transport import NON_MONOMIAL, _second_line

EXAMPLES = Path(poissondef.__file__).parent / "examples"
TEXTS = {p.stem: p.read_text(encoding="utf-8")
         for p in sorted(EXAMPLES.glob("*.pdef"))}


# ----------------------------------------------------------------------
# The replaced stages, verbatim
# ----------------------------------------------------------------------

_PARENT_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<frame>d/[A-Za-z_][A-Za-z0-9_]*)
  | (?P<rational>\d+/\d+)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<sym>[;:,=^*+\-()\[\]])
""", re.VERBOSE)


def parent_tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _PARENT_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(dsl._Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(dsl._Token("eof", "", line, col))
    return tokens


def parent_sort_sign(indices):
    """Sort wedge indices, returning (tuple, sign); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def parent_projective_space(n: int) -> ChartedSpace:
    if not 1 <= n <= 3:
        raise InconsistentData("projective atlas supported for dimensions 1..3")
    charts = [Chart(f"U{i}", tuple(f"z{j+1}" for j in range(n)))
              for i in range(n + 1)]
    hom = {i: [a for a in range(n + 1) if a != i] for i in range(n + 1)}
    transitions = {}
    for i in range(n + 1):
        for k in range(n + 1):
            if i == k:
                continue
            tmap = {}
            for j, a in enumerate(hom[i]):
                # a/i = (a/k) / (i/k): the variable of a on Uk (none when
                # a = k) over the variable of i
                e = [0] * n
                e[hom[k].index(i)] = -1
                if a != k:
                    e[hom[k].index(a)] = 1
                tmap[f"z{j+1}"] = LaurentPoly.monomial(charts[k].vars, e)
            transitions[(f"U{i}", f"U{k}")] = tmap
    return ChartedSpace(f"P{n}", charts, transitions)


def parent_hirzebruch(m: int) -> ChartedSpace:
    if m < 0:
        raise InconsistentData("ruled-surface index must be >= 0")
    U1 = Chart("U1", ("z", "xi"))
    U2 = Chart("U2", ("zp", "xip"))
    U3 = Chart("U3", ("z", "eta"))
    U4 = Chart("U4", ("zp", "etap"))

    def mono(vars, exps):
        return LaurentPoly.monomial(vars, exps)

    t = {}
    t[("U1", "U2")] = {"z": mono(U2.vars, (-1, 0)), "xi": mono(U2.vars, (m, 1))}
    t[("U2", "U1")] = {"zp": mono(U1.vars, (-1, 0)), "xip": mono(U1.vars, (m, 1))}
    t[("U1", "U3")] = {"z": mono(U3.vars, (1, 0)), "xi": mono(U3.vars, (0, -1))}
    t[("U3", "U1")] = {"z": mono(U1.vars, (1, 0)), "eta": mono(U1.vars, (0, -1))}
    t[("U2", "U4")] = {"zp": mono(U4.vars, (1, 0)), "xip": mono(U4.vars, (0, -1))}
    t[("U4", "U2")] = {"zp": mono(U2.vars, (1, 0)), "etap": mono(U2.vars, (0, -1))}
    t[("U3", "U4")] = {"z": mono(U4.vars, (-1, 0)), "eta": mono(U4.vars, (-m, 1))}
    t[("U4", "U3")] = {"zp": mono(U3.vars, (-1, 0)), "etap": mono(U3.vars, (-m, 1))}
    t[("U1", "U4")] = {"z": mono(U4.vars, (-1, 0)), "xi": mono(U4.vars, (m, -1))}
    t[("U4", "U1")] = {"zp": mono(U1.vars, (-1, 0)), "etap": mono(U1.vars, (-m, -1))}
    t[("U2", "U3")] = {"zp": mono(U3.vars, (-1, 0)), "xip": mono(U3.vars, (m, -1))}
    t[("U3", "U2")] = {"z": mono(U2.vars, (-1, 0)), "eta": mono(U2.vars, (-m, -1))}
    return ChartedSpace(f"F{m}", [U1, U2, U3, U4], t)


def parent_jacobian(self) -> list:
    exprs = []
    for tv in self.target_vars:
        expr = self.inverse[tv]
        if expr.vars != self.source_vars:
            expr = expr.with_vars(self.source_vars)
        exprs.append(expr)
    columns = []
    for sv in self.source_vars:
        column = []
        for b, expr in enumerate(exprs):
            entry = derivative(expr, sv)
            if not entry.is_zero():
                column.append((b, entry))
        columns.append(column)
    return columns


def parent_build(self, idx: tuple) -> list:
    # the parent kept the columns on the transition; here they are rebuilt
    columns = parent_jacobian(self)
    images = []
    for choice in _cartesian(*(columns[s] for s in idx)):
        tidx, sign = parent_sort_sign(b for b, _ in choice)
        if sign == 0:
            continue
        prod = LaurentPoly.const(self.source_vars, sign)
        for _, entry in choice:
            prod = prod * entry
        # a function's empty frame goes to 1, with nothing to substitute
        image = (self.convert(prod) if choice
                 else LaurentPoly.const(self.target_vars, sign))
        if not image.is_zero():
            images.append((tidx, image))
    return images


def parent_structure_fields_restricted(self, chart: str) -> tuple:
    rows = self._restricted_fields.get(chart)
    if rows is None:
        w = self.normal[chart]
        rows = self._restricted_fields[chart] = tuple(
            tuple(restrict(entry, w) for entry in row)
            for row in self.structure_fields[chart])
    return rows


def parent_extract_submanifold(M, normal_spec) -> SubmanifoldData:
    space = M.space
    normal = {}
    tangential = {}
    codim = None
    for name in space.chart_names:
        if name not in normal_spec:
            raise InconsistentData(f"no normal data for chart {name}")
        spec = normal_spec[name]
        if spec == geometry.ABSENT or spec is None:
            normal[name] = None
            tangential[name] = None
            continue
        w = tuple(spec)
        chart = space.chart(name)
        for v in w:
            if v not in chart.vars:
                raise InconsistentData(
                    f"normal variable {v!r} not on chart {name}")
        if len(set(w)) != len(w):
            raise InconsistentData(f"repeated normal variable on chart {name}")
        normal[name] = w
        tangential[name] = tuple(v for v in chart.vars if v not in w)
        if codim is None:
            codim = len(w)
        elif codim != len(w):
            raise geometry.WrongCodimension(
                f"chart {name} declares codimension {len(w)}, expected {codim}")
    if codim is None:
        raise InconsistentData("submanifold absent from every chart")

    data = SubmanifoldData(M, normal, tangential, codim)
    present = data.present_charts()

    # adapted-transition checks and first-order normal matrices
    for (i, k) in space.overlap_pairs():
        if i not in present or k not in present:
            continue
        wk = normal[k]
        tmap = space.transitions[(i, k)]
        for v in space.chart(i).vars:
            if tmap[v].has_negative_exponent(wk):
                raise NonAdaptedTransition(
                    f"transition {i}->{k}: {v} = {tmap[v]} is singular along "
                    f"the target normal locus")
        for a, wv in enumerate(normal[i]):
            expr = tmap[wv]
            if not expr.set_zero(wk).is_zero():
                raise NonAdaptedTransition(
                    f"transition {i}->{k} sends normal variable {wv} to "
                    f"{expr}, which does not vanish on the target normal locus")
        mat = []
        for a, wv in enumerate(normal[i]):
            row = []
            for b, wvk in enumerate(wk):
                row.append(derivative(space.transitions[(i, k)][wv], wvk)
                           .set_zero(wk))
            mat.append(row)
        data.first_order[(i, k)] = mat

    # structure vector fields via the division rule
    for name in present:
        chart = space.chart(name)
        w = normal[name]
        widx = {v: chart.vars.index(v) for v in w}
        r = len(w)
        T = [[Polyvector.zero(chart.vars, 1) for _ in range(r)] for _ in range(r)]
        for a, wv in enumerate(w):
            ham = schouten(M.bivectors[name],
                           Polyvector.from_function(
                               LaurentPoly.variable(chart.vars, wv)))
            residual = Polyvector.zero(chart.vars, 1)
            for idx, coeff in ham.terms.items():
                for e, c in coeff.terms.items():
                    beta = None
                    for b, wb in enumerate(w):
                        if e[widx[wb]] > 0:
                            beta = b
                            break
                    mono = LaurentPoly.monomial(chart.vars, e, c)
                    if beta is None:
                        residual = residual + Polyvector(chart.vars, 1, {idx: mono})
                    else:
                        shifted = list(e)
                        shifted[widx[w[beta]]] -= 1
                        T[a][beta] = T[a][beta] + Polyvector(
                            chart.vars, 1,
                            {idx: LaurentPoly.monomial(chart.vars, shifted, c)})
            if not residual.is_zero():
                raise NotPoissonSubmanifold(
                    f"bracket with {wv} on chart {name} leaves residual "
                    f"{residual} outside the normal ideal")
        data.structure_fields[name] = T

    data.checks = parent_verify_submanifold_tensors(data)
    return data


def parent_verify_submanifold_tensors(data: SubmanifoldData) -> dict:
    M = data.manifold
    report = {"chart_identity": {}, "overlap_identity": {}, "pass": True}
    for name in data.present_charts():
        w = data.normal[name]
        r = data.codim
        T0 = parent_structure_fields_restricted(data, name)
        ok = True
        for a in range(r):
            for b in range(r):
                lhs = restrict(schouten(M.bivectors[name], T0[a][b]), w)
                quad = Polyvector.zero(M.space.chart(name).vars, 2)
                for g in range(r):
                    quad = quad + wedge(T0[g][b], T0[a][g])
                if not (lhs - quad).is_zero():
                    ok = False
        report["chart_identity"][name] = ok
        report["pass"] &= ok
    for (i, k) in sorted(data.first_order):
        r = data.codim
        wk = data.normal[k]
        F = data.first_order[(i, k)]
        T0k = parent_structure_fields_restricted(data, k)
        Ti_on_k = [[restrict(data.space.pushforward(entry, i, k), wk)
                    for entry in row]
                   for row in parent_structure_fields_restricted(data, i)]
        ok = True
        for a in range(r):
            for g in range(r):
                lhs = Polyvector.zero(M.space.chart(k).vars, 1)
                for b in range(r):
                    lhs = lhs + F[b][g] * Ti_on_k[a][b]
                rhs = restrict(
                    schouten(M.bivectors[k],
                             Polyvector.from_function(F[a][g])), wk)
                for b in range(r):
                    rhs = rhs + F[a][b] * T0k[b][g]
                if not (lhs - rhs).is_zero():
                    ok = False
        report["overlap_identity"][f"{i}->{k}"] = ok
        report["pass"] &= ok
    if not report["pass"]:
        raise InconsistentData(
            f"submanifold tensor identities failed: {report}")
    return report


# ----------------------------------------------------------------------
# Inputs and typed views
# ----------------------------------------------------------------------

def _lp(x: LaurentPoly):
    """Values, insertion order and the int or Fraction type of each
    coefficient."""
    return (x.vars, [(e, c, type(c)) for e, c in x.terms.items()])


def _rows(rows: list) -> list:
    """A kept image list, one row (tidx, e, c) per image term, with the int
    or Fraction type of each scalar."""
    return [(tidx, e, c, type(c)) for tidx, e, c in rows]


def _flat(images: list) -> list:
    """The parent's images [(tidx, LaurentPoly)] laid out term by term, as
    `_rows` lays out the kept list."""
    return [(tidx, e, c, type(c)) for tidx, image in images
            for e, c in image.terms.items()]


def _pv(x: Polyvector):
    return (x.vars, x.degree, [(idx, _lp(c)) for idx, c in x.terms.items()])


def _ordered(x):
    """A report or table with the order of every dict kept."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_ordered(v) for v in x]
    if isinstance(x, LaurentPoly):
        return _lp(x)
    if isinstance(x, Polyvector):
        return _pv(x)
    return (x, type(x))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as e:  # compared by type and message
        return type(e).__name__, str(e)


def _tokens(text, tokenize):
    return _outcome(lambda: [(t.kind, t.value, t.line, t.col)
                             for t in tokenize(text)])


def _product_line():
    """P1 x P1 with the line w = 0, present on the two V0 charts."""
    space = product(projective_space(1), _second_line())
    v = space.chart("U0xV0").vars
    lam = Polyvector(v, 2, {(0, 1): LaurentPoly(v, {(0, 1): Fraction(3, 2)})})
    man = PoissonManifold.from_chart_data(space, {"U0xV0": lam})
    spec = {name: (["w"] if name.endswith("V0") else "absent")
            for name in space.chart_names}
    return man, spec


def _affine_line():
    """Affine 3-space with x1 * x3 d/x1 ^ d/x2 and the line x1 = x2 = 0."""
    space = affine_space(3)
    v = space.chart("U").vars
    lam = Polyvector(v, 2, {(0, 1): LaurentPoly(v, {(1, 0, 1): 1})})
    return PoissonManifold(space, {"U": lam}), {"U": ["x1", "x2"]}


def _from_text(text):
    doc = parse(text)
    return doc.manifold(), {n: doc.normal_spec[n]
                            for n in doc.space.chart_names}


def submanifold_cases() -> dict:
    """(manifold, normal spec) per shipped file with a submanifold, and on
    the test atlases."""
    out = {name: _from_text(text) for name, text in TEXTS.items()
           if parse(text).normal_spec}
    out["Affine(3) line"] = _affine_line()
    # Λ's coefficients are Fractions, one of them integral
    out["Affine(3) fractions"] = _from_text("""builtin Affine(3);
poisson on U: 1/2 * x1 * 2 * x3 * d/x1 ^ d/x2 + 3/2 * x1 * x2 * d/x1 ^ d/x3;
submanifold normal U: [x1, x2];
""")
    out["P1xP1 line"] = _product_line()
    out["shear"] = _from_text(NON_MONOMIAL)
    return out


CASES = submanifold_cases()


def atlases() -> dict:
    out = {f"P{n}": projective_space(n) for n in (1, 2, 3)}
    out.update({f"F{m}": hirzebruch(m) for m in range(6)})
    out["Affine(3)"] = affine_space(3)
    out["P1xP1"] = product(projective_space(1), _second_line())
    out.update({name: parse(text).space for name, text in TEXTS.items()})
    out["shear"] = parse(NON_MONOMIAL).space
    return out


# ----------------------------------------------------------------------
# Tokens
# ----------------------------------------------------------------------

BAD_CHARACTERS = [
    "@builtin P2;\n",                          # at the start of the text
    "builtin P2;\n@manifold x;\n",             # at the start of a line
    "builtin P2;\nmanifold x @;\n",            # mid-line
    "builtin P2; # a comment\n  $\n",          # after a comment
    "# only a comment\n\t%",                   # at the end of the text
    "manifold x;\r\n\x0bbuiltin P2;\x0c!",     # after other white space
    "builtin P2;\n\n   é",                     # a non-ASCII character
]


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_tokens_match_parent_on_every_shipped_file(name):
    want = _tokens(TEXTS[name], parent_tokenize)
    assert want[0] == "ok"
    assert _tokens(TEXTS[name], _tokenize) == want


@pytest.mark.parametrize("text", BAD_CHARACTERS)
def test_an_unexpected_character_is_reported_where_the_parent_did(text):
    def error(tokenize):
        with pytest.raises(ParseError) as info:
            tokenize(text)
        return str(info.value), info.value.line, info.value.col

    assert error(_tokenize) == error(parent_tokenize)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated())
def test_tokens_match_parent_on_mutated_files(case):
    _, text = case
    assert _tokens(text, _tokenize) == _tokens(text, parent_tokenize)


# ----------------------------------------------------------------------
# Atlases and frame images
# ----------------------------------------------------------------------

def test_sort_sign_matches_parent():
    """Every tuple of up to four indices below 4, given as a tuple and as
    an iterator."""
    for n in range(5):
        for idx in _cartesian(range(4), repeat=n):
            want = parent_sort_sign(idx)
            assert _sort_sign(idx) == want
            assert _sort_sign(iter(idx)) == want

@pytest.mark.parametrize("build, parent, arg", [
    *((projective_space, parent_projective_space, n) for n in (1, 2, 3)),
    *((hirzebruch, parent_hirzebruch, m) for m in range(6)),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_builtin_atlases_match_parent(build, parent, arg):
    new, old = build(arg), parent(arg)
    assert new.name == old.name and new.charts == old.charts
    assert _ordered(new.transitions) == _ordered(old.transitions)
    assert list(new._moves) == list(old._moves)
    for pair, move in new._moves.items():
        assert move.mono.images == old._moves[pair].mono.images
        assert move.mono.target_vars == old._moves[pair].mono.target_vars
        assert (move.source_vars, move.target_vars) == (
            old._moves[pair].source_vars, old._moves[pair].target_vars)


def test_builtin_atlas_errors_match_parent():
    for build, parent, arg in [(projective_space, parent_projective_space, 4),
                               (projective_space, parent_projective_space, 0),
                               (hirzebruch, parent_hirzebruch, -1)]:
        assert _outcome(build, arg) == _outcome(parent, arg)


@pytest.mark.parametrize("name", sorted(atlases()))
def test_frame_images_match_parent(name):
    """Every index tuple of every degree on every ordered pair."""
    space = atlases()[name]
    seen = 0
    for move in space._moves.values():
        n = len(move.source_vars)
        for degree in range(n + 1):
            for idx in combinations(range(n), degree):
                got = _rows(move[idx])
                want = _flat(parent_build(move, idx))
                assert got == want, (idx, move.source_vars, move.target_vars)
                seen += 1
    assert seen or not space._moves


def test_frame_images_keep_fraction_coefficients():
    """A transition whose values carry Fraction coefficients, one of them
    integral, keeps the parent's scalar types."""
    u, v = ("x", "y"), ("a", "b")
    space = ChartedSpace("scaled", [Chart("U", u), Chart("V", v)], {
        ("U", "V"): {"x": LaurentPoly(v, {(1, 0): Fraction(2, 3)}),
                     "y": LaurentPoly(v, {(1, 1): 1}) * Fraction(1, 2) * 2},
        ("V", "U"): {"a": LaurentPoly(u, {(1, 0): Fraction(3, 2)}),
                     "b": LaurentPoly(u, {(-1, 1): Fraction(4, 3)})}})
    assert any(type(c) is Fraction and c.denominator == 1
               for c in space.transitions[("U", "V")]["y"].terms.values())
    for move in space._moves.values():
        for idx in [(), (0,), (1,), (0, 1)]:
            assert _rows(move[idx]) == _flat(parent_build(move, idx))


# ----------------------------------------------------------------------
# Extraction and certificates
# ----------------------------------------------------------------------

def _extracted(data: SubmanifoldData):
    return (_ordered(data.first_order), _ordered(data.structure_fields),
            [_ordered(data.structure_fields_restricted(n))
             for n in data.present_charts()],
            _ordered(data.checks))


def _parent_extracted(data: SubmanifoldData):
    return (_ordered(data.first_order), _ordered(data.structure_fields),
            [_ordered(parent_structure_fields_restricted(data, n))
             for n in data.present_charts()],
            _ordered(data.checks))


def _both(M, spec):
    new = _outcome(extract_submanifold, M, spec)
    old = _outcome(parent_extract_submanifold, M, spec)
    return ((new[0], _extracted(new[1]) if new[0] == "ok" else new[1]),
            (old[0], _parent_extracted(old[1]) if old[0] == "ok" else old[1]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_extraction_matches_parent(name):
    new, old = _both(*CASES[name])
    assert old[0] == "ok"
    assert new == old


def _normal_choices(space, codim):
    """Every normal spec of one codimension over the atlas: per chart,
    absent or an ordered choice of codim of its variables."""
    per_chart = [["absent"] + [list(c) for c in combinations(
        space.chart(n).vars, codim)] for n in space.chart_names]
    for choice in _cartesian(*per_chart):
        yield dict(zip(space.chart_names, choice))


@pytest.mark.parametrize("name", ["p2_extended", "p3_line", "f2_instability",
                                  "c3_line", "P1xP1 line", "shear"])
def test_every_normal_choice_ends_as_in_parent(name):
    """Adapted or not, Poisson or not: the same data or the same error, on
    every choice of normal variables of the case's codimension."""
    M, spec = CASES[name]
    codim = max(len(s) for s in spec.values() if s != "absent")
    kinds = set()
    for choice in _normal_choices(M.space, codim):
        new, old = _both(M, choice)
        assert new == old, choice
        kinds.add(old[0])
    assert "ok" in kinds and len(kinds) > 1


def test_failures_match_parent_with_their_messages():
    p2 = projective_space(2)
    v = p2.chart("U0").vars
    not_poisson = PoissonManifold.from_chart_data(p2, {"U0": Polyvector(
        v, 2, {(0, 1): LaurentPoly(v, {(1, 0): 1, (0, 1): Fraction(1, 2)})})})
    flat = PoissonManifold(p2, {})
    cases = [
        (not_poisson, {"U0": ["z1"], "U1": "absent", "U2": ["z2"]},
         "NotPoissonSubmanifold"),
        # z1 on U1 is z1/z2 on U2: singular along z2 = 0
        (flat, {"U0": "absent", "U1": ["z2"], "U2": ["z2"]},
         "NonAdaptedTransition"),
        # z1 on U0 is 1/z1 on U1
        (flat, {"U0": ["z2"], "U1": ["z1"], "U2": "absent"},
         "NonAdaptedTransition"),
    ]
    for M, spec, kind in cases:
        new, old = _both(M, spec)
        assert old[0] == kind, old
        assert new == old


POLE_TEXTS = {
    # a pole along the normal locus that the chart identity meets
    "pole": """builtin Affine(3);
poisson on U: x1 * x3^-1 * d/x1 ^ d/x2 + x3 * d/x3 ^ d/x1;
submanifold normal U: [x3];
""",
    # a pole that the division rule moves into a structure field
    "field": """builtin Affine(3);
poisson on U: x1 * x2^-1 * d/x1 ^ d/x3;
submanifold normal U: [x1, x2];
""",
    # a pole that only the overlap identity's bracket [Λ_V, y] meets
    "overlap": """chart U vars x z w;
chart V vars y u v;
transition U -> V: x = y, z = u, w = y * v;
transition V -> U: y = x, u = z, v = x^-1 * w;
poisson on U: w * d/x ^ d/w;
poisson on V: v * d/y ^ d/v + u * v^-1 * d/y ^ d/u;
submanifold normal U: [w];
submanifold normal V: [v];
""",
    # poles at two index tuples of one bracket
    "two": """builtin Affine(4);
poisson on U: x1 * x3 * x4^-1 * d/x1 ^ d/x2 + x4 * d/x4 ^ d/x1 + x1 * x4^-2 * d/x3 ^ d/x2 + x1 * x4^-1 * d/x1 ^ d/x3;
submanifold normal U: [x4];
""",
}


@pytest.mark.parametrize("name", sorted(POLE_TEXTS))
def test_a_negative_normal_power_raises_as_in_parent(name):
    new, old = _both(*_from_text(POLE_TEXTS[name]))
    assert old[0] == "NegativePowerAtZero", old
    assert new == old


def _copy(data: SubmanifoldData, first_order=None, structure_fields=None):
    """A new submanifold record over the same data, with no kept tables."""
    return SubmanifoldData(
        data.manifold, data.normal, data.tangential, data.codim,
        dict(data.first_order if first_order is None else first_order),
        dict(data.structure_fields if structure_fields is None
             else structure_fields))


def _perturbed(data: SubmanifoldData):
    """Copies with one structure field or one first-order entry changed by
    a term."""
    for name in data.present_charts():
        cvars = data.space.chart(name).vars
        for a, b in _cartesian(range(data.codim), repeat=2):
            for j, e in [(0, (0,) * len(cvars)),
                         (len(cvars) - 1, (1,) + (0,) * (len(cvars) - 1))]:
                T = [list(row) for row in data.structure_fields[name]]
                T[a][b] = T[a][b] + Polyvector(
                    cvars, 1, {(j,): LaurentPoly(cvars, {e: Fraction(1, 3)})})
                yield _copy(data, structure_fields={
                    **data.structure_fields, name: T})
    for pair, F in data.first_order.items():
        kvars = data.space.chart(pair[1]).vars
        tangential = [kvars.index(v) for v in data.tangential[pair[1]]]
        for a, g in _cartesian(range(data.codim), repeat=2):
            e = [0] * len(kvars)
            if tangential:
                e[tangential[0]] = 1
            mat = [list(row) for row in F]
            mat[a][g] = mat[a][g] + LaurentPoly(kvars, {tuple(e): 2})
            yield _copy(data, first_order={**data.first_order, pair: mat})


@pytest.mark.parametrize("name", sorted(CASES))
def test_broken_identities_fail_as_in_parent(name):
    """Each perturbed copy is certified by both; most break a chart or an
    overlap identity, and then both raise the same report."""
    data = extract_submanifold(*CASES[name])
    broken = 0
    for new, old in zip(_perturbed(data), _perturbed(data)):
        got = _outcome(verify_submanifold_tensors, new)
        want = _outcome(parent_verify_submanifold_tensors, old)
        assert got == want
        broken += got[0] == "InconsistentData"
    assert broken


def test_the_perturbations_break_both_kinds_of_identity():
    seen = set()
    for name in ("p3_line", "p2_extended", "c3_line"):
        data = extract_submanifold(*CASES[name])
        for copy in _perturbed(data):
            kind, message = _outcome(verify_submanifold_tensors, copy)
            if kind == "InconsistentData":
                seen.update(re.findall(r"'(\w+)_identity': \{[^}]*False",
                                       message))
    assert seen == {"chart", "overlap"}


# ----------------------------------------------------------------------
# What the front end calls and builds
# ----------------------------------------------------------------------

def _patch_everywhere(monkeypatch, name, wrapper):
    """`wrapper` in place of the polyvector function `name` in every
    package module that binds it."""
    original = getattr(poissondef.polyvector, name)
    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("poissondef")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, wrapper(original))


@pytest.mark.parametrize("function", ["schouten", "restrict"])
def test_extraction_calls_no_polyvector_bracket_wedge_or_restrict(
        monkeypatch, function):
    """On every shipped file with a submanifold: the division rule, the
    first-order matrices, the restricted rows and both identities run on
    raw terms."""
    manifolds = {name: _from_text(TEXTS[name]) for name in TEXTS
                 if parse(TEXTS[name]).normal_spec}
    calls = []

    def wrapper(original):
        def counted(*args, **kwargs):
            calls.append(function)
            return original(*args, **kwargs)
        return counted

    _patch_everywhere(monkeypatch, function, wrapper)
    for M, spec in manifolds.values():
        data = extract_submanifold(M, spec)
        for name in data.present_charts():
            data.structure_fields_restricted(name)
    assert len(manifolds) == 16
    assert calls == []


def test_two_commands_on_one_file_build_everything_twice(monkeypatch):
    """No atlas, structure or submanifold is kept across commands."""
    made = {"atlas": 0, "manifold": 0, "submanifold": 0}
    atlas_init, manifold_init = ChartedSpace.__init__, PoissonManifold.__init__
    extract = dsl.extract_submanifold

    def atlas(self, *args, **kwargs):
        made["atlas"] += 1
        atlas_init(self, *args, **kwargs)

    def manifold(self, *args, **kwargs):
        made["manifold"] += 1
        manifold_init(self, *args, **kwargs)

    def extracted(*args):
        made["submanifold"] += 1
        return extract(*args)

    monkeypatch.setattr(ChartedSpace, "__init__", atlas)
    monkeypatch.setattr(PoissonManifold, "__init__", manifold)
    monkeypatch.setattr(dsl, "extract_submanifold", extracted)
    argv = ["tensors", str(EXAMPLES / "p3_line.pdef")]
    first = run_command(argv)
    assert made == {"atlas": 1, "manifold": 1, "submanifold": 1}
    assert run_command(argv) == first and first[0] == 0
    assert made == {"atlas": 2, "manifold": 2, "submanifold": 2}
