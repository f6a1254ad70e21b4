"""Problem-file language: a small text format describing an atlas, a Poisson
structure, a submanifold, deformation parameters, and optional families.

Statements end with ``;`` and ``#`` starts a line comment:

* ``manifold <name>;`` — label for reports;
* ``builtin <Name>(args);`` — stock atlas (``P1``/``P2``/``P3``/``Pn(n)``/
  ``Fm(m)``/``Affine(n)``);
* ``chart <id> vars v1 v2 ...;`` and
  ``transition <i> -> <k>: v = <expr>, ...;`` — explicit atlases;
* ``poisson on <chart>: <bivector-expr>;`` — structure seed, propagated to
  the other charts;
* ``submanifold normal <chart>: [v, ...] | absent;``
* ``params t1 ... tl order <M> degree <D>;``
* ``mode fixed|extended|prescribed;``
* ``family <chart>: v = <series-expr>, ...;`` — normal-variable motions;
* ``lambda <chart>: <series-bivector-expr>;`` — ambient bivector family
  (charts without a statement receive it by pushforward along the overlap
  graph from the first one);
* ``artin def|hilb|exthilb;`` — functor selector for obstruction reports.

The atlas statements (``builtin``, ``chart``, ``transition``) come before
any statement that names a chart; a later one is a parse error.

Scalar expressions use rationals, chart variables, parameters and
``+ - * ^`` with integer (possibly negative) exponents; bivector terms
multiply a scalar prefix into a wedge of frame atoms written ``d/v ^ d/w``.
A degenerate wedge collapses to zero with a recorded warning. Parsing is
position-annotated; a second pass rejects unknown variables and series terms
beyond the declared order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .artin import FUNCTORS
from .deformation import MODES, DeformationProblem, DeformationState
from .errors import (ChartMismatch, InconsistentData,
                     NonInvertibleSubstitution, ParseError)
from .geometry import (ABSENT, Chart, ChartedSpace, PoissonManifold,
                       builtin_space, extract_submanifold)
from .polyvector import Polyvector, _sort_sign
from .symbolic import LaurentPoly, TruncatedSeries

# `bad` catches any character no token starts with, so that every position
# matches and one `finditer` pass reads the whole text
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<frame>d/[A-Za-z_][A-Za-z0-9_]*)
  | (?P<rational>\d+/\d+)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<sym>[;:,=^*+\-()\[\]])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    """The tokens of `text`, each with its line and column, both from 1,
    ending with an "eof" token; whitespace and comments are dropped. A
    column is counted from the start of its line, the character after the
    last newline before it."""
    tokens = []
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            value = m.group()
            newlines = value.count("\n")
            if newlines:
                line += newlines
                start = m.start() + value.rfind("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line,
                             m.start() - start + 1)
        elif kind != "comment":
            tokens.append(_Token(kind, m.group(), line, m.start() - start + 1))
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


# ----------------------------------------------------------------------
# Document object
# ----------------------------------------------------------------------

class ProblemFile:
    """Parsed problem description plus builders for the engine objects.
    A plain class on purpose: `dataclasses` costs about 14 ms a launch."""
    __slots__ = ("name", "builtin", "charts", "transitions", "poisson",
                 "normal_spec", "params", "order", "degree", "mode", "family",
                 "lam", "artin", "warnings", "_space", "_manifold",
                 "_submanifold")

    def __init__(self, name: str | None = None, builtin: tuple | None = None,
                 charts: list = None, transitions: dict = None,
                 poisson: dict = None, normal_spec: dict = None,
                 params: tuple = (), order: int | None = None,
                 degree: int | None = None, mode: str = "fixed",
                 family: dict = None, lam: dict = None,
                 artin: str | None = None, warnings: list = None,
                 _space: ChartedSpace | None = None):
        self.name = name
        self.builtin = builtin                # (name, args)
        self.charts = [] if charts is None else charts  # declared order
        # (i, k) -> {v: LP}; per chart a Polyvector, a list or ABSENT
        self.transitions = {} if transitions is None else transitions
        self.poisson = {} if poisson is None else poisson
        self.normal_spec = {} if normal_spec is None else normal_spec
        self.params = params
        self.order = order
        self.degree = degree
        self.mode = mode
        self.family = {} if family is None else family  # chart -> {v: TS}
        self.lam = {} if lam is None else lam  # chart -> TS(Polyvector)
        self.artin = artin
        self.warnings = [] if warnings is None else warnings
        self._space = _space
        # `manifold()` and `submanifold()`, each built on first use
        self._manifold = None
        self._submanifold = None

    # ---- engine builders ----------------------------------------------
    @property
    def space(self) -> ChartedSpace:
        if self._space is None:
            if self.builtin is not None:
                self._space = builtin_space(*self.builtin)
            else:
                self._space = ChartedSpace(self.name or "space", self.charts,
                                           self.transitions)
        return self._space

    def manifold(self) -> PoissonManifold:
        """The Poisson structure, built on first use and kept, so that one
        command builds it once."""
        if self._manifold is None:
            self._manifold = (PoissonManifold.from_chart_data(
                self.space, dict(self.poisson)) if self.poisson
                else PoissonManifold(self.space, {}))
        return self._manifold

    def submanifold(self):
        """The submanifold extracted from `manifold()`, built on first use
        and kept, so that one command extracts and certifies it once."""
        if self._submanifold is None:
            if not self.normal_spec:
                raise InconsistentData("problem file declares no submanifold")
            spec = {}
            for name in self.space.chart_names:
                if name not in self.normal_spec:
                    raise InconsistentData(
                        f"no submanifold statement for chart {name}")
                spec[name] = self.normal_spec[name]
            self._submanifold = extract_submanifold(self.manifold(), spec)
        return self._submanifold

    def lambda_family(self, cutoff: int | None = None) -> dict:
        """Per-chart ambient family; charts without a statement receive it
        by pushforward along the spanning tree rooted at the first declared
        one."""
        space = self.space
        if not self.lam:
            raise InconsistentData("problem file declares no ambient family")
        cutoff = self.order if cutoff is None else cutoff
        given = space.spread(
            self.lam, next(iter(self.lam)), lambda ser, src, dst: ser.map(
                lambda pv: space.pushforward(pv, src, dst)))
        return {name: TruncatedSeries(self.params, cutoff, given[name].terms)
                for name in space.chart_names}

    def family_state(self, problem):
        """Deformation state built from the family/lambda statements."""
        S = problem.submanifold
        M = problem.order
        phi = {}
        for name in S.present_charts():
            given = self.family.get(name, {})
            phi[name] = [TruncatedSeries(self.params, M, given[v].terms
                                         if v in given else {})
                         for v in S.normal[name]]
        if self.lam:
            lam = self.lambda_family(M)
        else:
            man = problem.submanifold.manifold
            lam = {name: TruncatedSeries.const(self.params, M,
                                               man.bivector(name))
                   for name in self.space.chart_names}
        order = 0
        nonzero = [s.min_order() for rows in phi.values() for s in rows
                   if s.min_order() is not None]
        if nonzero or self.lam:
            order = M
        return DeformationState(problem, order, phi, lam)

    def problem(self, *, order=None, degree=None, mode=None, seed=None,
                bound=None):
        use_mode = mode or self.mode
        prescribed = None
        if use_mode == "prescribed":
            prescribed = self.lambda_family(order or self.order)
        submanifold = self.submanifold()
        use_order = order if order is not None else self.order
        use_degree = degree if degree is not None else self.degree
        if use_order is None or use_degree is None:
            raise InconsistentData(
                "problem file has no params statement, so the deformation "
                "problem has no order and degree")
        return DeformationProblem(
            submanifold, self.params, use_order, use_degree,
            mode=use_mode, prescribed=prescribed, seed=seed, bound=bound)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.doc = ProblemFile()

    # ---- token plumbing ----------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return tok

    def expect_name(self, value: str | None = None) -> _Token:
        return self.expect("name", value)

    def at_sym(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value == value

    def eat_sym(self, value: str) -> bool:
        if self.at_sym(value):
            self.next()
            return True
        return False

    # ---- statement dispatch ------------------------------------------
    def parse_document(self) -> ProblemFile:
        while self.peek().kind != "eof":
            tok = self.expect("name")
            handler = getattr(self, f"_stmt_{tok.value}", None)
            if handler is None:
                raise ParseError(f"unknown statement {tok.value!r}",
                                 tok.line, tok.col)
            # the atlas is built at its first use and never changes after
            if (tok.value in ("builtin", "chart", "transition")
                    and self.doc._space is not None):
                raise ParseError(f"{tok.value!r} statement after the atlas "
                                 "is in use", tok.line, tok.col)
            handler()
            self.expect("sym", ";")
        return self.doc

    # ---- statements ---------------------------------------------------
    def _stmt_manifold(self):
        self.doc.name = self.expect("name").value

    def _stmt_builtin(self):
        tok = self.expect("name")
        args = self._items(")", self._builtin_arg) if self.eat_sym("(") else ()
        self.doc.builtin = (tok.value, tuple(args))

    def _builtin_arg(self):
        arg = self.next()
        if arg.kind == "number":
            return int(arg.value)
        if arg.kind == "name":
            return arg.value
        raise ParseError("bad builtin argument", arg.line, arg.col)

    def _stmt_chart(self):
        name = self.expect("name").value
        self.expect_name("vars")
        vars = []
        while self.peek().kind == "name":
            vars.append(self.next().value)
        if not vars:
            tok = self.peek()
            raise ParseError("chart needs at least one variable",
                             tok.line, tok.col)
        self.doc.charts.append(Chart(name, tuple(vars)))

    # ---- shared statement parts --------------------------------------
    def _chart_head(self):
        """`<chart>:`, returning the chart's name token and variables."""
        tok = self.expect("name")
        try:
            cvars = self.doc.space.chart(tok.value).vars
        except ChartMismatch:
            raise ParseError(f"unknown chart {tok.value!r}",
                             tok.line, tok.col)
        self.expect("sym", ":")
        return tok, cvars

    def _chart_var(self, chart: str, cvars) -> _Token:
        """A name token that must be one of the chart's variables."""
        v = self.expect("name")
        if v.value not in cvars:
            raise ParseError(f"{v.value!r} is not a variable of chart "
                             f"{chart!r}", v.line, v.col)
        return v

    def _assignments(self, chart: str, cvars, value, out=None) -> dict:
        """`v = <value>, ...` over the chart's variables, added to `out` (a
        new dict by default); `value(v)` parses the right side of variable
        token v. A variable `out` already holds is an error at its token."""
        out = {} if out is None else out
        while True:
            v = self._chart_var(chart, cvars)
            if v.value in out:
                raise ParseError(f"{v.value!r} is assigned twice on chart "
                                 f"{chart!r}", v.line, v.col)
            self.expect("sym", "=")
            out[v.value] = value(v)
            if not self.eat_sym(","):
                return out

    def _items(self, close: str, item) -> list:
        """Comma-separated `item()`s up to and including the `close`
        symbol."""
        out = []
        while not self.at_sym(close):
            out.append(item())
            if not self.at_sym(close):
                self.expect("sym", ",")
        self.next()
        return out

    def _stmt_transition(self):
        if self.doc.builtin is not None:
            tok = self.peek()
            raise ParseError("builtin atlases carry their own transitions",
                             tok.line, tok.col)
        i = self.expect("name").value
        self.expect("arrow")
        k = self.expect("name").value
        self.expect("sym", ":")
        by_name = {c.name: c for c in self.doc.charts}
        if i not in by_name or k not in by_name:
            tok = self.peek()
            raise ParseError(f"transition between undeclared charts "
                             f"{i!r}, {k!r}", tok.line, tok.col)
        self.doc.transitions[(i, k)] = self._assignments(
            i, by_name[i].vars, lambda v: self._scalar_expr(by_name[k].vars))

    def _stmt_poisson(self):
        self.expect_name("on")
        tok, cvars = self._chart_head()
        self.doc.poisson[tok.value] = Polyvector(
            cvars, 2, self._polyvector_expr(cvars, degree=2))

    def _stmt_submanifold(self):
        self.expect_name("normal")
        tok, cvars = self._chart_head()
        if self.peek().kind == "name" and self.peek().value == "absent":
            self.next()
            self.doc.normal_spec[tok.value] = ABSENT
            return
        self.expect("sym", "[")
        self.doc.normal_spec[tok.value] = self._items(
            "]", lambda: self._chart_var(tok.value, cvars).value)

    def _stmt_params(self):
        names = []
        while self.peek().kind == "name" and self.peek().value != "order":
            names.append(self.next().value)
        if not names:
            tok = self.peek()
            raise ParseError("params needs at least one name",
                             tok.line, tok.col)
        self.expect_name("order")
        self.doc.order = int(self.expect("number").value)
        self.expect_name("degree")
        self.doc.degree = int(self.expect("number").value)
        self.doc.params = tuple(names)

    def _stmt_mode(self):
        tok = self.expect("name")
        if tok.value not in MODES:
            raise ParseError(f"unknown mode {tok.value!r}", tok.line, tok.col)
        self.doc.mode = tok.value

    def _stmt_family(self):
        tok, cvars = self._chart_head()
        self._assignments(tok.value, cvars,
                          lambda v: self._series_expr(cvars, v),
                          self.doc.family.setdefault(tok.value, {}))

    def _stmt_lambda(self):
        tok, cvars = self._chart_head()
        self.doc.lam[tok.value] = self._series_polyvector(cvars, tok,
                                                          degree=2)

    def _stmt_artin(self):
        tok = self.expect("name")
        if tok.value not in FUNCTORS:
            raise ParseError(f"unknown functor {tok.value!r}",
                             tok.line, tok.col)
        self.doc.artin = tok.value

    # ---- expressions --------------------------------------------------
    def _scalar_expr(self, cvars, extra=()) -> LaurentPoly:
        return self._sum(tuple(cvars) + tuple(extra))

    def _sum(self, allvars) -> LaurentPoly:
        value = self._term(allvars)
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().value
            rhs = self._term(allvars)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, allvars) -> LaurentPoly:
        value = self._factor(allvars)
        while self.at_sym("*"):
            self.next()
            value = value * self._factor(allvars)
        return value

    def _factor(self, allvars) -> LaurentPoly:
        if self.eat_sym("-"):
            return -self._factor(allvars)
        base = self._primary(allvars)
        if self.at_sym("^"):
            self.next()
            neg = self.eat_sym("-")
            tok = self.expect("number")
            power = int(tok.value)
            if neg:
                power = -power
            try:
                base = base ** power
            except NonInvertibleSubstitution:
                raise ParseError("negative power of a non-monomial",
                                 tok.line, tok.col) from None
        return base

    def _primary(self, allvars) -> LaurentPoly:
        tok = self.next()
        if tok.kind == "number":
            return LaurentPoly.const(allvars, int(tok.value))
        if tok.kind == "rational":
            num, den = tok.value.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in {tok.value!r}",
                                 tok.line, tok.col)
            return LaurentPoly.const(allvars, Fraction(int(num), int(den)))
        if tok.kind == "name":
            if tok.value not in allvars:
                raise ParseError(f"unknown variable {tok.value!r}",
                                 tok.line, tok.col)
            return LaurentPoly.variable(allvars, tok.value)
        if tok.kind == "sym" and tok.value == "(":
            value = self._sum(allvars)
            self.expect("sym", ")")
            return value
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def _polyvector_expr(self, cvars, degree: int, extra=()) -> dict:
        """Sum of terms `scalar-prefix * d/v ^ d/w ...`, as a dict from
        sorted frame-index tuples to LaurentPolys over cvars + extra."""
        allvars = tuple(cvars) + tuple(extra)
        acc: dict = {}
        first = True
        while True:
            if self.eat_sym("-"):
                sign = -1
            elif self.eat_sym("+") or first:
                sign = 1
            else:
                return acc
            first = False
            coeff, idx = self._pv_term(allvars, cvars, degree)
            if idx is not None:
                coeff = coeff * sign
                acc[idx] = acc[idx] + coeff if idx in acc else coeff

    def _pv_term(self, allvars, cvars, degree: int):
        """One bivector term: scalar factors over `allvars`, then a frame
        block over the chart variables `cvars`."""
        coeff = LaurentPoly.const(allvars, 1)
        while self.peek().kind != "frame":
            coeff = coeff * self._factor(allvars)
            if self.at_sym("*"):
                self.next()
                continue
            break
        tok = self.peek()
        if tok.kind != "frame":
            raise ParseError("bivector term needs frame factors d/<var>",
                             tok.line, tok.col)
        frames = []
        while self.peek().kind == "frame":
            ftok = self.next()
            frames.append((ftok.value[2:], ftok))
            if self.at_sym("^"):
                nxt = self.tokens[self.i + 1]
                if nxt.kind == "frame":
                    self.next()
                    continue
            break
        if len(frames) != degree:
            raise ParseError(f"expected a wedge of {degree} frames",
                             frames[-1][1].line, frames[-1][1].col)
        names = [f[0] for f in frames]
        for vname, ftok in frames:
            if vname not in cvars:
                raise ParseError(f"unknown variable {vname!r}",
                                 ftok.line, ftok.col)
        idx, sign = _sort_sign(tuple(cvars).index(v) for v in names)
        if idx is None:
            ftok = frames[0][1]
            self.doc.warnings.append(
                (ftok.line, ftok.col,
                 f"degenerate wedge {' ^ '.join('d/' + n for n in names)} "
                 "collapses to zero"))
            return None, None
        return coeff * sign, idx

    def _series_expr(self, cvars, where: _Token) -> TruncatedSeries:
        if not self.doc.params:
            raise ParseError("family statements need a params statement "
                             "first", where.line, where.col)
        lp = self._scalar_expr(cvars, extra=self.doc.params)
        return self._split_series(lp, cvars, where)

    def _split_series(self, lp: LaurentPoly, cvars,
                      where: _Token) -> TruncatedSeries:
        params = self.doc.params
        M = self.doc.order
        cvars = tuple(cvars)
        n = len(cvars)
        terms: dict = {}
        for e, c in lp.terms.items():
            ce, pe = e[:n], e[n:]
            if any(p < 0 for p in pe):
                raise ParseError("negative parameter exponent",
                                 where.line, where.col)
            if sum(pe) > M:
                raise ParseError(f"series term of degree {sum(pe)} exceeds "
                                 f"the declared order {M}",
                                 where.line, where.col)
            base = terms.setdefault(tuple(pe), {})
            base[ce] = base.get(ce, 0) + c
        out = {}
        for pe, mono in terms.items():
            poly = LaurentPoly(cvars, mono)
            if not poly.is_zero():
                out[pe] = poly
        return TruncatedSeries(params, M, out)

    def _series_polyvector(self, cvars, where: _Token,
                           degree: int) -> TruncatedSeries:
        if not self.doc.params:
            raise ParseError("lambda statements need a params statement "
                             "first", where.line, where.col)
        accum = self._polyvector_expr(cvars, degree, extra=self.doc.params)
        params = self.doc.params
        M = self.doc.order
        cvars = tuple(cvars)
        series_terms: dict = {}
        for idx, lp in accum.items():
            ser = self._split_series(lp, cvars, where)
            for pe, poly in ser.terms.items():
                pvterms = series_terms.setdefault(pe, {})
                pvterms[idx] = poly
        out = {}
        for pe, pvterms in series_terms.items():
            pv = Polyvector(cvars, degree, pvterms)
            if not pv.is_zero():
                out[pe] = pv
        return TruncatedSeries(params, M, out)


def parse(text: str) -> ProblemFile:
    """Parse problem-file text; raises ParseError with position data."""
    parser = _Parser(text)
    doc = parser.parse_document()
    _validate_semantics(doc)
    return doc


def _validate_semantics(doc: ProblemFile):
    if doc.builtin is None and not doc.charts:
        if doc.poisson or doc.normal_spec or doc.family:
            raise ParseError("no atlas declared")
        return
    space = doc.space
    for name in doc.normal_spec:
        space.chart(name)
    for name in doc.family:
        if doc.normal_spec.get(name) in (None, ABSENT):
            raise ParseError(
                f"family statement on chart {name!r} without submanifold "
                "normals")
        for v in doc.family[name]:
            if v not in doc.normal_spec[name]:
                raise ParseError(
                    f"family assigns non-normal variable {v!r} on chart "
                    f"{name!r}")


# ----------------------------------------------------------------------
# Canonical rendering
# ----------------------------------------------------------------------

def _fmt_monomial(vars, e, c: Fraction, frames=None) -> str:
    parts = []
    for v, p in zip(vars, e):
        if p == 0:
            continue
        parts.append(v if p == 1 else f"{v}^{p}")
    if frames:
        parts.append(" ^ ".join(f"d/{v}" for v in frames))
    if not parts:
        return str(c)
    if c == 1:
        return " * ".join(parts)
    if c == -1:
        return "-" + " * ".join(parts)
    return " * ".join([str(c)] + parts)


def _join_terms(rendered) -> str:
    out = ""
    for piece in rendered:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


def _render_terms(cvars, params, terms) -> str:
    """The one term renderer. A term is (idx, chart exponents, parameter
    exponents, coefficient): the coefficient times the monomial over
    cvars + params, wedged with d/cvars[j] for j in idx. Terms are written
    in (idx, parameter exponents, chart exponents) order."""
    allvars = tuple(cvars) + tuple(params)
    return _join_terms(
        _fmt_monomial(allvars, ce + pe, c, [cvars[j] for j in idx])
        for idx, ce, pe, c in sorted(terms, key=lambda t: (t[0], t[2], t[1])))


def format_poly(lp: LaurentPoly) -> str:
    """Human form of a Laurent polynomial, matching the file grammar."""
    return _render_terms(lp.vars, (),
                         (((), e, (), c) for e, c in lp.terms.items()))


def format_series(ser: TruncatedSeries, cvars) -> str:
    """Human form of a truncated scalar series over the given chart."""
    return _render_terms(cvars, ser.params, (
        ((), ce, pe, c) for pe, poly in ser.terms.items()
        for ce, c in poly.terms.items()))


def format_pv_series(ser: TruncatedSeries, cvars, params) -> str:
    """Human form of a truncated polyvector series over the given chart."""
    return _render_terms(cvars, params, (
        (idx, ce, pe, c) for pe, pv in ser.terms.items()
        for idx, poly in pv.terms.items() for ce, c in poly.terms.items()))


def format_polyvector(pv: Polyvector) -> str:
    """Human form of a polyvector (scalars fall back to plain polynomials)."""
    return _render_terms(pv.vars, (), (
        (idx, ce, (), c) for idx, poly in pv.terms.items()
        for ce, c in poly.terms.items()))


def format_param_monomial(params, exps) -> str:
    """Human form of a monomial in the parameters, "1" for the unit."""
    parts = []
    for p, e in zip(params, exps):
        if e == 1:
            parts.append(p)
        elif e:
            parts.append(f"{p}^{e}")
    return "*".join(parts) or "1"


def format_param_series(ser: TruncatedSeries) -> str:
    """Human form of a series whose coefficients are plain rationals."""
    parts = []
    for pe in sorted(ser.terms):
        c = ser.terms[pe]
        if not c:
            continue
        mono = format_param_monomial(ser.params, pe)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return _join_terms(parts)
