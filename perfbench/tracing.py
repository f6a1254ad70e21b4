"""Per-layer tracing of `poissondef` from outside the library.

A `Tracer` wraps the public functions listed in `TARGETS` by rebinding them
in every loaded `poissondef.*` namespace that holds them (modules import
them with `from .linalg import rref, ...`, and `nullspace` reaches `rref`
through `linalg`'s own globals), and restores every binding on exit.  Each
call becomes a span: name, start, end, parent span and command id.  Spans
are kept in memory; `write_spans` writes them as JSON lines and `summarize`
folds them into per-function and per-module metrics.

Nothing here is imported or patched unless a traced pass asks for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, function or Class.method) pairs, grouped by layer.
TARGETS = (
    # elimination
    ("linalg", "rref"), ("linalg", "nullspace"), ("linalg", "solve_min"),
    # matrix assembly and section search
    ("complexes", "global_sections"), ("complexes", "h0_complex"),
    ("complexes", "atlas_hyper_truncated"), ("complexes", "affine_hyper"),
    ("complexes", "characteristic_map"),
    # solver and certification
    ("deformation", "run_solver"), ("deformation", "solve_order"),
    ("deformation", "obstruction_cocycle"), ("deformation", "certify_cocycle"),
    ("deformation", "gluing_mismatch"), ("deformation", "ideal_residual"),
    ("deformation", "verify_family"), ("deformation", "match_families"),
    # small-ring obstruction calculus
    ("artin", "artin_first_order"), ("artin", "artin_obstruction"),
    ("artin", "first_order_by_enumeration"),
    # exact arithmetic
    ("symbolic", "substitute"), ("polyvector", "pushforward"),
    ("polyvector", "schouten"),
    # chart transport
    ("geometry", "extract_submanifold"), ("geometry", "ChartedSpace.pushforward"),
    ("geometry", "ChartedSpace.substitute_chart"),
    ("geometry", "SubmanifoldData.push_restrict"),
    # front end
    ("dsl", "parse"), ("cli", "run_command"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))

RREF = "linalg.rref"
RREF_COUNTS = ("cells", "nnz", "rank", "max_cols")

# A span is a list [name, start, end, parent index (-1 at the root),
# command id, attrs or None], appended in start order.
NAME, START, END, PARENT, COMMAND, ATTRS = range(6)


def _rref_shape(args, kwargs):
    """Shape and non-zeros of a dense matrix handed to `rref`, read before
    the call.  Any other input is left alone and goes unmeasured."""
    matrix = args[0] if args else kwargs.get("matrix")
    if not isinstance(matrix, (list, tuple)) or not all(
            isinstance(r, (list, tuple)) for r in matrix):
        return None
    return {"rows": len(matrix), "cols": len(matrix[0]) if matrix else 0,
            "nnz": sum(1 for r in matrix for x in r if x)}


def _rref_rank(result, attrs):
    if isinstance(result, tuple) and len(result) == 2:  # (rows, pivots)
        attrs["rank"] = len(result[1])


class Tracer:
    """Context manager that traces `TARGETS` while it is entered."""

    def __init__(self):
        self.spans: list = []
        self.command = None  # id of the command being run, set by the caller
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        """Wrap every target that exists; a target a later version of the
        library has removed is skipped and reports no calls."""
        for module, qualname in TARGETS:
            mod = importlib.import_module(f"poissondef.{module}")
            name = f"{module}.{qualname}"
            hooks = (_rref_shape, _rref_rank) if name == RREF else (None, None)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name, None)
                if owner is not None and attr in vars(owner):
                    original = vars(owner)[attr]
                    self._patch(owner, attr, self._wrap(name, original, *hooks))
                continue
            original = getattr(mod, qualname, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, *hooks)
            for ns in _poissondef_modules():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.command, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                after(result, attrs)
            return result

        return traced


def _poissondef_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "poissondef" or n.startswith("poissondef."))]


def write_spans(spans, path):
    """Write spans as JSON lines: id, name, start, end, parent, command."""
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            rec = {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                   "parent": s[PARENT] if s[PARENT] >= 0 else None,
                   "command": s[COMMAND]}
            if s[ATTRS]:
                rec.update(s[ATTRS])
            fh.write(json.dumps(rec) + "\n")


def summarize(spans, scales=None, busy=None) -> dict:
    """Per-function and per-module metrics from a list of spans.

    `self_s` is a span's duration minus its direct children's; `total_s`
    counts only the outermost of nested calls of one function.  Time spent
    in functions that are not traced falls to the nearest traced caller.
    With `scales`, one per command id, every duration is multiplied by its
    command's scale (calibrated seconds, see `calibrate.py`); `busy(t0, t1)`
    gives the time speed samples took within a span, which is left out.
    """
    names = [f"{m}.{q}" for m, q in TARGETS]
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.total_s"] = 0.0
    for key in RREF_COUNTS:
        out[f"{RREF}.{key}"] = 0
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0

    durations = [(s[END] - s[START] - (busy(s[START], s[END]) if busy else 0.0))
                 * (scales[s[COMMAND]] if scales else 1.0) for s in spans]
    child = [0.0] * len(spans)
    for s, dur in zip(spans, durations):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur
    for i, (s, dur) in enumerate(zip(spans, durations)):
        name = s[NAME]
        self_s = dur - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
        if not _has_ancestor(spans, i, name):
            out[f"{name}.total_s"] += dur
        if name == RREF and s[ATTRS]:
            a = s[ATTRS]
            out[f"{RREF}.cells"] += a["rows"] * a["cols"]
            out[f"{RREF}.nnz"] += a["nnz"]
            out[f"{RREF}.rank"] += a.get("rank", 0)
            out[f"{RREF}.max_cols"] = max(out[f"{RREF}.max_cols"], a["cols"])
    return out


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
