"""Charted spaces, Poisson structures on them, and submanifold data.

A ChartedSpace stores, for each ordered chart pair (i, k) that overlaps, the
expression of every chart-i variable in chart-k coordinates (Laurent, since
the standard atlases invert coordinates). Atlases are two-way: every pair's
inverse is declared too. Each ordered pair is one `polyvector.Transition`,
which moves functions and polyvectors along it; a transition sending every
variable to one term c * y^a is compiled there into a
`symbolic.MonomialMap`, and any other goes through `symbolic.substitute`.
The builtin atlases send each variable to a monomial y^a: they are given by
their exponent vectors a, from which `_monomial_atlas` makes each value.

Submanifold extraction computes the restriction tensors: the first-order
normal transition matrices and the structure vector fields appearing in the
bracket of the structure with each normal variable, and certifies the
compatibility identities they satisfy. Each stage works on the exact core's
raw terms {idx: {e: c}} and builds each polyvector once. The division
rule and the certificates (`verify_submanifold_tensors`) take their
brackets by `polyvector._raw_bracket`, the one rule of `schouten` on raw
terms: the division rule sorts the terms of [Λ, w_a] straight into the
structure fields, and the certificates add their products in place. The
chart identity's wedges are `polyvector._wedge_rule`, the differential's
wedge, applied by `polyvector._ruled`. None calls `schouten` or
`restrict`. The chart identity is closedness at p = 1 in the normal
complex of `complexes`, checked here directly.

The records here are plain classes on purpose, as in `complexes`,
`deformation`, `dsl` and `artin`: `dataclasses` costs about 14 ms a launch.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import (
    ChartMismatch,
    InconsistentData,
    NonAdaptedTransition,
    NotPoissonSubmanifold,
    WrongCodimension,
)
from .polyvector import (Polyvector, Transition, _landed, _raw_bracket,
                         _ruled, _wedge_rule, pushforward, schouten)
from .symbolic import (LaurentPoly, _add_into, _add_product, _as_scalar,
                       _derivative, _set_zero, _zeroed)


class Chart:
    """A chart's name and its coordinate names; equal and hashed as the
    value (name, vars)."""
    __slots__ = ("name", "vars")

    def __init__(self, name: str, vars: tuple):
        self.name = name
        self.vars = vars

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.name == other.name
                and self.vars == other.vars)

    def __hash__(self):
        return hash((self.name, self.vars))


class ChartedSpace:
    """An atlas with explicit Laurent transition maps.

    The transitions are fixed at construction, which rejects a transition
    whose inverse is missing. Each ordered pair (i, k) is then one
    `polyvector.Transition` (`_moves[(i, k)]`): the map, its inverse, its
    compiled `symbolic.MonomialMap` or None, and the Jacobian and frame
    images, built on the first pushforward that needs them."""

    def __init__(self, name: str, charts: Iterable[Chart],
                 transitions: Mapping[tuple, Mapping[str, LaurentPoly]]):
        self.name = name
        self.charts = tuple(charts)
        self._by_name = {c.name: c for c in self.charts}
        if len(self._by_name) != len(self.charts):
            raise InconsistentData("duplicate chart names")
        self.transitions = {}
        for (i, k), tmap in transitions.items():
            ci, ck = self.chart(i), self.chart(k)
            fixed = {}
            for v, expr in tmap.items():
                if v not in ci.vars:
                    raise InconsistentData(
                        f"transition {i}->{k} assigns unknown variable {v!r}")
                fixed[v] = expr.with_vars(ck.vars) if expr.vars != ck.vars else expr
            missing = [v for v in ci.vars if v not in fixed]
            if missing:
                raise InconsistentData(
                    f"transition {i}->{k} misses variables {missing}")
            self.transitions[(i, k)] = fixed
        self._moves = {}
        for (i, k), tmap in self.transitions.items():
            if (k, i) not in self.transitions:
                raise InconsistentData(
                    f"transition {i}->{k} has no inverse {k}->{i}")
            self._moves[(i, k)] = Transition(
                tmap, self.transitions[(k, i)], self.chart(i).vars,
                self.chart(k).vars)

    def chart(self, name: str) -> Chart:
        try:
            return self._by_name[name]
        except KeyError:
            raise ChartMismatch(f"unknown chart {name!r}") from None

    @property
    def chart_names(self):
        return tuple(c.name for c in self.charts)

    def overlap_pairs(self):
        return sorted(self.transitions.keys())

    def triples(self, names):
        """The distinct (i, j, k) of `names`, in nested order, whose
        overlaps (i, j), (j, k) and (i, k) are all declared."""
        t = self.transitions
        for i in names:
            for j in names:
                for k in names:
                    if (len({i, j, k}) == 3 and (i, j) in t and (j, k) in t
                            and (i, k) in t):
                        yield i, j, k

    # ---- transport ----------------------------------------------------
    def substitute_chart(self, f: LaurentPoly, src: str, dst: str) -> LaurentPoly:
        """Express a function of chart-src coordinates in chart-dst ones."""
        move = self._moves.get((src, dst))
        if move is None:
            raise ChartMismatch(f"no transition {src}->{dst}")
        if f.vars != move.source_vars:
            f = f.with_vars(move.source_vars)
        return move.convert(f)

    def pushforward(self, a: Polyvector, src: str, dst: str) -> Polyvector:
        """Re-express a chart-src polyvector on chart dst."""
        if src == dst:
            return a
        move = self._moves.get((src, dst))
        if move is None:
            raise ChartMismatch(f"no two-way transition between {src} and {dst}")
        return pushforward(a, move)

    def spanning_tree(self, root: str, subset: Iterable[str] | None = None):
        """BFS tree edges (parent, child) over declared overlaps."""
        names = list(subset) if subset is not None else list(self.chart_names)
        if root not in names:
            raise ChartMismatch(f"root {root!r} not in chart subset")
        seen = {root}
        edges = []
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nxt in names:
                if nxt in seen:
                    continue
                if (cur, nxt) in self.transitions:
                    seen.add(nxt)
                    edges.append((cur, nxt))
                    queue.append(nxt)
        if len(seen) != len(names):
            raise InconsistentData(
                f"overlap graph not connected over {names}")
        return edges

    def spread(self, given: Mapping, root: str, move) -> dict:
        """`given` completed to every chart along the spanning tree rooted at
        `root`: a chart without a value receives move(value, parent, chart)
        of its tree parent's value."""
        out = dict(given)
        for (parent, child) in self.spanning_tree(root):
            if child not in out:
                out[child] = move(out[parent], parent, child)
        return out

    # ---- validation ---------------------------------------------------
    def validate(self) -> dict:
        """Check two-way compositions and triple cocycle identities."""
        report = {"inverses": {}, "cocycles": {}, "pass": True}
        for (i, k) in self.overlap_pairs():
            ok = True
            for v in self.chart(i).vars:
                expr = self.substitute_chart(self.transitions[(i, k)][v], k, i)
                if expr != LaurentPoly.variable(self.chart(i).vars, v):
                    ok = False
            report["inverses"][f"{i}->{k}->{i}"] = ok
            report["pass"] &= ok
        for i, j, k in self.triples(self.chart_names):
            ok = True
            for v in self.chart(i).vars:
                via_j = self.substitute_chart(self.transitions[(i, j)][v], j, k)
                if via_j != self.transitions[(i, k)][v]:
                    ok = False
            report["cocycles"][f"{i}->{j}->{k}"] = ok
            report["pass"] &= ok
        return report


# ----------------------------------------------------------------------
# Built-in atlases
# ----------------------------------------------------------------------

def affine_space(n: int, names: Iterable[str] | None = None) -> ChartedSpace:
    names = tuple(names) if names else tuple(f"x{i+1}" for i in range(n))
    if len(names) != n:
        raise InconsistentData("wrong number of variable names")
    return ChartedSpace(f"Affine({n})", [Chart("U", names)], {})


def _monomial_atlas(name: str, charts: list, vectors: dict) -> ChartedSpace:
    """The atlas whose transition (i, k) sends the j-th variable of chart i
    to y^(vectors[(i, k)][j]) in the coordinates y of chart k, with
    coefficient 1, each value made as a one-term `LaurentPoly._valid`."""
    by_name = {c.name: c for c in charts}
    transitions = {}
    for (i, k), rows in vectors.items():
        kvars = by_name[k].vars
        transitions[(i, k)] = {v: LaurentPoly._valid(kvars, {e: 1})
                               for v, e in zip(by_name[i].vars, rows)}
    return ChartedSpace(name, charts, transitions)


def projective_space(n: int) -> ChartedSpace:
    """n-dimensional projective space, n+1 standard charts U0..Un.

    On chart Ui the j-th variable z{j} is the ratio of homogeneous coordinate
    a_j over coordinate i, where a_1 < ... < a_n runs over {0..n} minus {i}.
    """
    if not 1 <= n <= 3:
        raise InconsistentData("projective atlas supported for dimensions 1..3")
    charts = [Chart(f"U{i}", tuple(f"z{j+1}" for j in range(n)))
              for i in range(n + 1)]
    hom = {i: [a for a in range(n + 1) if a != i] for i in range(n + 1)}
    vectors = {}
    for i in range(n + 1):
        for k in range(n + 1):
            if i == k:
                continue
            rows = []
            for a in hom[i]:
                # a/i = (a/k) / (i/k): the variable of a on Uk (none when
                # a = k) over the variable of i
                e = [0] * n
                e[hom[k].index(i)] = -1
                if a != k:
                    e[hom[k].index(a)] = 1
                rows.append(tuple(e))
            vectors[(f"U{i}", f"U{k}")] = rows
    return _monomial_atlas(f"P{n}", charts, vectors)


def hirzebruch(m: int) -> ChartedSpace:
    """The rational ruled surface of index m >= 0, four standard charts.

    U1(z, xi) and U2(zp, xip) cover the base-affine pieces of one ruling
    section's neighborhood with xi = zp^m * xip; U3/U4 invert the fibre
    coordinate (eta = 1/xi, etap = 1/xip).
    """
    if m < 0:
        raise InconsistentData("ruled-surface index must be >= 0")
    charts = [Chart("U1", ("z", "xi")), Chart("U2", ("zp", "xip")),
              Chart("U3", ("z", "eta")), Chart("U4", ("zp", "etap"))]
    # per ordered pair, each source variable's exponents on the target
    return _monomial_atlas(f"F{m}", charts, {
        ("U1", "U2"): ((-1, 0), (m, 1)), ("U2", "U1"): ((-1, 0), (m, 1)),
        ("U1", "U3"): ((1, 0), (0, -1)), ("U3", "U1"): ((1, 0), (0, -1)),
        ("U2", "U4"): ((1, 0), (0, -1)), ("U4", "U2"): ((1, 0), (0, -1)),
        ("U3", "U4"): ((-1, 0), (-m, 1)), ("U4", "U3"): ((-1, 0), (-m, 1)),
        ("U1", "U4"): ((-1, 0), (m, -1)), ("U4", "U1"): ((-1, 0), (-m, -1)),
        ("U2", "U3"): ((-1, 0), (m, -1)), ("U3", "U2"): ((-1, 0), (-m, -1)),
    })


def product(a: ChartedSpace, b: ChartedSpace, name: str | None = None) -> ChartedSpace:
    """Product atlas: one chart per chart pair, transitions componentwise."""
    charts = []
    for ca in a.charts:
        for cb in b.charts:
            if set(ca.vars) & set(cb.vars):
                raise InconsistentData(
                    f"variable clash between factors: {ca.vars} vs {cb.vars}")
            charts.append(Chart(f"{ca.name}x{cb.name}", ca.vars + cb.vars))
    transitions = {}
    for ca in a.charts:
        for cb in b.charts:
            for da in a.charts:
                for db in b.charts:
                    if (ca.name, cb.name) == (da.name, db.name):
                        continue
                    if ca.name != da.name and (ca.name, da.name) not in a.transitions:
                        continue
                    if cb.name != db.name and (cb.name, db.name) not in b.transitions:
                        continue
                    dst_vars = da.vars + db.vars
                    tmap = {}
                    for v in ca.vars:
                        expr = (LaurentPoly.variable(da.vars, v) if ca.name == da.name
                                else a.transitions[(ca.name, da.name)][v])
                        tmap[v] = expr.with_vars(dst_vars)
                    for v in cb.vars:
                        expr = (LaurentPoly.variable(db.vars, v) if cb.name == db.name
                                else b.transitions[(cb.name, db.name)][v])
                        tmap[v] = expr.with_vars(dst_vars)
                    transitions[(f"{ca.name}x{cb.name}", f"{da.name}x{db.name}")] = tmap
    return ChartedSpace(name or f"{a.name}x{b.name}", charts, transitions)


def builtin_space(name: str, args: tuple = ()) -> ChartedSpace:
    key = name.lower()
    if key in ("p1", "p2", "p3"):
        return projective_space(int(key[1]))
    sized = {"pn": projective_space, "fm": hirzebruch, "affine": affine_space}
    if key not in sized:
        raise InconsistentData(f"unknown builtin atlas {name!r}")
    if not args or type(args[0]) is not int:
        raise InconsistentData(f"builtin atlas {name} needs an integer argument")
    return sized[key](args[0])


# ----------------------------------------------------------------------
# Poisson structures
# ----------------------------------------------------------------------

class PoissonManifold:
    """A charted space with a bivector field on each chart."""

    def __init__(self, space: ChartedSpace,
                 bivectors: Mapping[str, Polyvector]):
        self.space = space
        self.bivectors = {}
        for name in space.chart_names:
            chart = space.chart(name)
            b = bivectors.get(name)
            if b is None:
                b = Polyvector.zero(chart.vars, 2)
            if b.degree != 2:
                raise InconsistentData(f"structure on {name} must be a bivector")
            if b.vars != chart.vars:
                raise ChartMismatch(
                    f"bivector on {name} uses {b.vars}, chart has {chart.vars}")
            self.bivectors[name] = b
        # complex kind -> `complexes.kept_complex` over this structure
        self._complexes = {}

    def bivector(self, chart: str) -> Polyvector:
        return self.bivectors[chart]

    @classmethod
    def from_chart_data(cls, space: ChartedSpace,
                        bivectors: Mapping[str, Polyvector]) -> "PoissonManifold":
        """Build a structure from bivectors on some charts, propagating to the
        remaining charts by pushforward along a spanning tree. Raises when a
        propagated representative fails to be holomorphic on its chart."""
        if not bivectors:
            raise InconsistentData("no chart carries a bivector")

        def move(b, parent, child):
            moved = space.pushforward(b, parent, child)
            for coeff in moved.terms.values():
                if coeff.has_negative_exponent():
                    raise InconsistentData(
                        f"structure propagated to chart {child} is singular: "
                        f"{moved}")
            return moved

        root = next(n for n in space.chart_names if n in bivectors)
        return cls(space, space.spread(bivectors, root, move))


def check_poisson_manifold(M: PoissonManifold) -> dict:
    """Exact integrability ([.,.] with itself vanishes) per chart, and chart
    agreement per overlap pair (i, k), labelled "i|k": chart i's bivector
    pushed to chart k is chart k's."""
    space = M.space
    jacobi = {name: schouten(b, b).is_zero()
              for name, b in M.bivectors.items()}
    gluing = {f"{i}|{k}": (space.pushforward(M.bivectors[i], i, k)
                           - M.bivectors[k]).is_zero()
              for (i, k) in space.overlap_pairs()}
    return {"jacobi": jacobi, "gluing": gluing,
            "pass": all(jacobi.values()) and all(gluing.values())}


# ----------------------------------------------------------------------
# Submanifolds
# ----------------------------------------------------------------------

ABSENT = "absent"


class SubmanifoldData:
    """A submanifold cut out chartwise by normal coordinates, plus the
    tensors extracted from the Poisson structure along it.

    Three derived tables are built on first use and kept: each present
    chart's structure fields restricted to the submanifold (immutable rows,
    read by the complexes' differential, the tensor certificates and the
    `tensors` report), each overlap's first-order matrix moved to its target
    chart, and each overlap's transport plan, which reads that matrix. So
    are the complexes over the submanifold (`complexes.kept_complex`)."""

    __slots__ = ("manifold", "normal", "tangential", "codim", "first_order",
                 "structure_fields", "checks", "_moved_first_order",
                 "_restricted_fields", "_transport_plans", "_complexes")

    def __init__(self, manifold: PoissonManifold, normal: dict,
                 tangential: dict, codim: int, first_order: dict = None,
                 structure_fields: dict = None, checks: dict = None):
        self.manifold = manifold
        self.normal = normal          # chart -> normal variable names, or None
        self.tangential = tangential  # chart -> remaining variable names
        self.codim = codim
        # (i,k) -> r x r LaurentPoly, and chart -> r x r Polyvector
        self.first_order = {} if first_order is None else first_order
        self.structure_fields = ({} if structure_fields is None
                                 else structure_fields)
        self.checks = {} if checks is None else checks
        # (dst, src) -> first_order[(dst, src)] moved to chart dst, chart ->
        # structure_fields[chart] restricted, and (dst, src) -> the plan of
        # `transport_plan`, each on first use
        self._moved_first_order = {}
        self._restricted_fields = {}
        self._transport_plans = {}
        # complex kind -> `complexes.kept_complex` over this submanifold
        self._complexes = {}

    @property
    def space(self) -> ChartedSpace:
        return self.manifold.space

    def present_charts(self):
        return tuple(n for n in self.space.chart_names if self.normal[n] is not None)

    def structure_fields_restricted(self, chart: str) -> tuple:
        """The rows T0[a][b] of one present chart's structure fields with
        the normal variables set to zero, built on first use and kept, as a
        tuple of tuples."""
        rows = self._restricted_fields.get(chart)
        if rows is None:
            cvars, w = self.space.chart(chart).vars, self.normal[chart]
            pos = tuple(cvars.index(v) for v in w)
            rows = self._restricted_fields[chart] = tuple(
                tuple(Polyvector._from_raw(cvars, 1, (
                    (idx, kept) for idx, f in entry.terms.items()
                    for kept in (_zeroed(cvars, w, pos, f.terms),) if kept))
                    for entry in row)
                for row in self.structure_fields[chart])
        return rows

    def normal_transition(self, i: str, k: str, alpha: int) -> LaurentPoly:
        """Expression of the alpha-th normal variable of chart i in chart-k
        coordinates (the defining transition component)."""
        return self.space.transitions[(i, k)][self.normal[i][alpha]]

    def substitute_tangential(self, f: LaurentPoly, src: str, dst: str) -> LaurentPoly:
        """Express a function of chart-src tangential coordinates in chart-dst
        ones, along the submanifold (normal variables set to zero)."""
        full = f.with_vars(self.space.chart(src).vars)
        out = self.space.substitute_chart(full, src, dst)
        return out.set_zero(self.normal[dst])

    def moved_first_order(self, dst: str, src: str) -> list:
        """The first-order matrix F = first_order[(dst, src)] with entries
        expressed in chart-dst tangential coordinates: the matrix that
        identifies a chart-src normal tuple on chart dst."""
        moved = self._moved_first_order.get((dst, src))
        if moved is None:
            moved = self._moved_first_order[(dst, src)] = [
                [self.substitute_tangential(f, src, dst) for f in row]
                for row in self.first_order[(dst, src)]]
        return moved

    def transport_plan(self, dst: str, src: str) -> tuple:
        """How a chart-src normal tuple, moved to chart dst and restricted,
        becomes a chart-dst tuple, built on first use and kept: the
        positions of the normal variables among the chart-dst variables,
        and per slot b the non-zero entries F[a][b] of `moved_first_order`
        in row order, each as (a, exponent, coefficient) when it has one
        term and as (a, None, its terms) otherwise."""
        plan = self._transport_plans.get((dst, src))
        if plan is None:
            cvars = self.space.chart(dst).vars
            F = self.moved_first_order(dst, src)
            rows = tuple(tuple(
                (a, *next(iter(f.terms.items()))) if len(f.terms) == 1
                else (a, None, f.terms)
                for a, f in enumerate(row[b] for row in F) if f.terms)
                for b in range(self.codim))
            plan = self._transport_plans[(dst, src)] = (
                tuple(cvars.index(v) for v in self.normal[dst]), rows)
        return plan


def extract_submanifold(M: PoissonManifold,
                        normal_spec: Mapping[str, object]) -> SubmanifoldData:
    """Build submanifold data from a per-chart choice of normal variables.

    normal_spec maps every chart name to a list of normal variable names or
    to the string "absent" for charts the submanifold misses. Transitions
    between present charts must send normal variables into the ideal of the
    target normal variables with non-negative powers; the extracted tensors
    are certified against their exact compatibility identities.
    """
    space = M.space
    normal = {}
    tangential = {}
    codim = None
    for name in space.chart_names:
        if name not in normal_spec:
            raise InconsistentData(f"no normal data for chart {name}")
        spec = normal_spec[name]
        if spec == ABSENT or spec is None:
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
            raise WrongCodimension(
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
        kvars = space.chart(k).vars
        pos = tuple(kvars.index(v) for v in wk)
        tmap = space.transitions[(i, k)]
        for v in space.chart(i).vars:
            if tmap[v].has_negative_exponent(wk):
                raise NonAdaptedTransition(
                    f"transition {i}->{k}: {v} = {tmap[v]} is singular along "
                    f"the target normal locus")
        for a, wv in enumerate(normal[i]):
            expr = tmap[wv]
            if _set_zero(expr.terms, pos):
                raise NonAdaptedTransition(
                    f"transition {i}->{k} sends normal variable {wv} to "
                    f"{expr}, which does not vanish on the target normal locus")
        # no negative power of a target normal variable is left to set to
        # zero
        data.first_order[(i, k)] = [
            [LaurentPoly._valid(kvars, _set_zero(
                _derivative(tmap[wv].terms, j), pos)) for j in pos]
            for wv in normal[i]]

    # structure vector fields via the division rule: each term c * x^e of
    # [Λ, w_a] goes to T[a][β] as c * x^e / w_β, β the first normal
    # variable with a positive power in e, or to the residual when there is
    # none. No two terms land on one key.
    for name in present:
        cvars = space.chart(name).vars
        w = normal[name]
        pos = tuple(cvars.index(v) for v in w)
        lam = {J: f.terms for J, f in M.bivectors[name].terms.items()}
        T = []
        for a, wv in enumerate(w):
            rows = [{} for _ in w]
            residual = {}
            unit = tuple(int(j == pos[a]) for j in range(len(cvars)))
            for idx, terms in _raw_bracket(lam, {(): {unit: 1}}).items():
                for e, c in terms.items():
                    # stored as an int when integral, as a new term is
                    c = _as_scalar(c)
                    beta = next((b for b, j in enumerate(pos) if e[j] > 0),
                                None)
                    if beta is None:
                        residual.setdefault(idx, {})[e] = c
                    else:
                        shifted = list(e)
                        shifted[pos[beta]] -= 1
                        rows[beta].setdefault(idx, {})[tuple(shifted)] = c
            if residual:
                raise NotPoissonSubmanifold(
                    f"bracket with {wv} on chart {name} leaves residual "
                    f"{Polyvector._from_raw(cvars, 1, residual.items())} "
                    f"outside the normal ideal")
            T.append([Polyvector._from_raw(cvars, 1, row.items())
                      for row in rows])
        data.structure_fields[name] = T

    data.checks = verify_submanifold_tensors(data)
    return data


def verify_submanifold_tensors(data: SubmanifoldData) -> dict:
    """Exact certification of the tensor identities along the submanifold,
    on raw terms.

    Per chart: the bracket of the structure with each restricted structure
    field matches the quadratic wedge of structure fields,
    restrict([Λ, T0[a][b]]) = Σ_g T0[g][b] ∧ T0[a][g]. That is closedness
    at p = 1 in the normal complex: d vanishes on each column
    (T0[0][b], ..., T0[r-1][b]).

    Per overlap (i, k): the first-order normal matrix F intertwines the two
    charts' structure fields up to the bracket of the structure with the
    matrix entries, Σ_b F[b][g] T0_i[a][b] = restrict([Λ_k, F[a][g]]) +
    Σ_b F[a][b] T0_k[b][g], with T0_i moved to chart k by one
    `Transition.move`, grouped by `polyvector._landed` and restricted.

    Brackets are taken by `polyvector._raw_bracket`, the wedges by
    `polyvector._wedge_rule` applied by `polyvector._ruled`, and every
    other product is added by `symbolic._add_product`. A negative power of
    a normal variable raises NegativePowerAtZero where restricting
    polyvector by polyvector (`restrict`) raises it, with its message.
    """
    space, r = data.space, data.codim
    report = {"chart_identity": {}, "overlap_identity": {}, "pass": True}
    for name in data.present_charts():
        cvars, w = space.chart(name).vars, data.normal[name]
        pos = tuple(cvars.index(v) for v in w)
        lam = {J: f.terms
               for J, f in data.manifold.bivectors[name].terms.items()}
        T0 = [[{idx: f.terms for idx, f in entry.terms.items()}
               for entry in row]
              for row in data.structure_fields_restricted(name)]
        ok = True
        for a in range(r):
            for b in range(r):
                # lhs - rhs, per index tuple; every bracket is restricted,
                # also after a failure: a later one may raise
                acc = {}
                for idx, terms in _raw_bracket(lam, T0[a][b]).items():
                    kept = _zeroed(cvars, w, pos, terms)
                    if kept:
                        acc[idx] = kept
                for g in range(r):
                    for idx, terms in _ruled(T0[g][b], {}, None, lambda I: (
                            _wedge_rule(I, T0[a][g], -1))).items():
                        _add_into(acc.setdefault(idx, {}), terms.items())
                ok &= not any(acc.values())
        report["chart_identity"][name] = ok
        report["pass"] &= ok
    for (i, k) in sorted(data.first_order):
        kvars, wk = space.chart(k).vars, data.normal[k]
        pos = tuple(kvars.index(v) for v in wk)
        lam = {J: f.terms for J, f in data.manifold.bivectors[k].terms.items()}
        F = data.first_order[(i, k)]
        T0k = data.structure_fields_restricted(k)
        # T0_i on chart k, restricted: (a, b) -> [(index tuple, terms)]
        moved = {}
        for (a, b, idx), terms in _landed(space._moves[(i, k)], {
                (a, b, idx, e): c
                for a, row in enumerate(data.structure_fields_restricted(i))
                for b, entry in enumerate(row)
                for idx, f in entry.terms.items()
                for e, c in f.terms.items()}).items():
            kept = _zeroed(kvars, wk, pos, terms)
            if kept:
                moved.setdefault((a, b), []).append((idx, kept))
        minus_F = [[{e: -c for e, c in f.terms.items()} for f in row]
                   for row in F]
        ok = True
        for a in range(r):
            for g in range(r):
                # lhs - rhs, per index tuple
                acc = {}
                for b in range(r):
                    for idx, terms in moved.get((a, b), ()):
                        _add_product(acc.setdefault(idx, {}),
                                     F[b][g].terms, terms)
                    for idx, f in T0k[b][g].terms.items():
                        _add_product(acc.setdefault(idx, {}), minus_F[a][b],
                                     f.terms)
                for idx, terms in _raw_bracket(
                        lam, {(): F[a][g].terms}).items():
                    _add_into(acc.setdefault(idx, {}), (
                        (e, -c) for e, c in
                        _zeroed(kvars, wk, pos, terms).items()))
                ok &= not any(acc.values())
        report["overlap_identity"][f"{i}->{k}"] = ok
        report["pass"] &= ok
    if not report["pass"]:
        raise InconsistentData(
            f"submanifold tensor identities failed: {report}")
    return report


# ----------------------------------------------------------------------
# Codimension-one line bundle
# ----------------------------------------------------------------------

class PoissonLineBundle:
    __slots__ = ("submanifold", "factors", "fields", "invariants")

    def __init__(self, submanifold: SubmanifoldData, factors: dict,
                 fields: dict, invariants: dict):
        self.submanifold = submanifold
        self.factors = factors    # (i,k) -> LaurentPoly transition factor
        self.fields = fields      # chart -> Polyvector (full, unrestricted)
        self.invariants = invariants


def codim1_line_bundle(data: SubmanifoldData) -> PoissonLineBundle:
    """Package the codimension-one data: scalar transition factors and the
    single structure field per chart, with its cocycle and compatibility
    certificates."""
    if data.codim != 1:
        raise WrongCodimension(
            f"line-bundle packaging needs codimension 1, got {data.codim}")
    present = data.present_charts()
    factors = {pair: mat[0][0] for pair, mat in data.first_order.items()}
    fields = {name: data.structure_fields[name][0][0] for name in present}
    # at r = 1 the chart and overlap identities of the submanifold tensors
    # are the field's closedness (T0 ^ T0 = 0 for one vector field) and its
    # compatibility with the transition factors
    inv = {"cocycle": {}, "field_closed": dict(data.checks["chart_identity"]),
           "field_compat": dict(data.checks["overlap_identity"]),
           "pass": data.checks["pass"]}
    # factors holds every overlap of present charts
    for i, j, k in data.space.triples(present):
        fij_on_k = data.substitute_tangential(factors[(i, j)], j, k)
        ok = factors[(i, k)] == fij_on_k * factors[(j, k)]
        inv["cocycle"][f"{i}->{j}->{k}"] = ok
        inv["pass"] &= ok
    return PoissonLineBundle(data, factors, fields, inv)
