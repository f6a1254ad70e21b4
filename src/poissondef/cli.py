"""Command-line front end: dispatches problem files to the engines.

Commands
--------
validate   atlas, structure and submanifold consistency checks
tensors    structure tensors of the submanifold (restricted matrices,
           normal transitions, first-order overlap matrices)
h0         degree-zero cohomology of a controlling complex
hyper      graded (single-chart) or window-truncated (atlas) degree-one data
solve      order-by-order family construction
verify     exact re-verification of the family written in the file
match      parameter substitution matching a model family to an observed one
artin      small-extension obstruction report for the selected functor

Exit codes: 0 success, 2 verified mathematical negative (obstructed family,
non-Poisson submanifold, impossible match, failed verification), 1 usage or
parse errors.

Reading a command line
----------------------
Each subcommand's handler, help, files and options are defined once, in
`_SUBCOMMANDS`. A canonical command line (the subcommand, its files, then
exact options, each with its value) is read straight from that table by
`_fast_args`; any other, help and usage errors included, goes to an
`argparse` parser built from the same table for that one call, so -h/--help
still prints argparse's help and raises SystemExit(0), and every usage
error keeps argparse's message. The help text is this docstring up to this
section.
"""

from __future__ import annotations

import argparse
import sys

from .artin import FUNCTORS, artin_first_order, artin_obstruction
from .complexes import (KINDS, PART_LABELS, _chunk_map, _slots, affine_hyper,
                        atlas_hyper_truncated, build_complex, cochain_is_zero,
                        h0_complex)
from .deformation import (MODES, DeformationState, match_families, run_solver,
                          verify_family)
from .dsl import (format_param_monomial, format_param_series, format_poly,
                  format_polyvector, format_pv_series, format_series, parse)
from .errors import (MatchFailure, NotPoissonSubmanifold, ParseError,
                     ToolkitError)
from .geometry import check_poisson_manifold

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """Type of every --order, --degree and --bound: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> _Parser:
    description = __doc__.partition("\nReading a command line\n")[0]
    parser = _Parser(prog="poissondef", description=description,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, files, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help)
        for dest, file_help in files:
            p.add_argument(dest, help=file_help)
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable report")
        for flag, dest, type, choices, default, option_help in options:
            p.add_argument(flag, dest=dest, type=type, choices=choices,
                           default=default, help=option_help)
    return parser


def _fast_args(argv):
    """The namespace `build_parser().parse_args(argv)` gives, for a
    canonical command line: the subcommand, its files, then its exact
    flags, each either --json or followed by a value that does not start
    with "-" and passes the flag's type and choices; a repeated flag keeps
    its last value. None for any other argv, which `argparse` reads."""
    spec = _SUBCOMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, _, files, options = spec
    n = len(files) + 1
    if len(argv) < n or any(a[:1] == "-" for a in argv[1:n]):
        return None
    values = {"command": argv[0], "as_json": False}
    values.update((dest, a) for (dest, _), a in zip(files, argv[1:]))
    values.update((dest, default) for _, dest, _, _, default, _ in options)
    rest = iter(argv[n:])
    for flag in rest:
        if flag == "--json":
            values["as_json"] = True
            continue
        option = next((o for o in options if o[0] == flag), None)
        value = next(rest, "-")  # "-": no value left
        if option is None or value[:1] == "-":
            return None
        _, dest, type, choices, _, _ = option
        if type is not None:
            try:
                value = type(value)
            except argparse.ArgumentTypeError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------

def _human_lines(obj, indent=0):
    lines = []
    pad = " " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_human_lines(v, indent + 2))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_human_lines(v, indent + 2))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


def _scalar(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, (list, dict)) and not v:
        return "[]" if isinstance(v, list) else "{}"
    return str(v)


def _emit(report: dict, as_json: bool) -> str:
    if as_json:
        import json  # only a --json report pays for this import
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return "\n".join(_human_lines(report)) + "\n"


def _render_cochain(c, parts=PART_LABELS, suffix="", label=str) -> dict:
    """The given parts of a cochain, in that order, each under its label
    plus `suffix` and then per chart, or per overlap with `label="|".join`."""
    return {PART_LABELS[part] + suffix: {
                label(at): _chunk_map(part, format_polyvector, chunk)
                for at, chunk in sorted(c[part].items())}
            for part in parts if part in c}


def _render_cocycle(state) -> dict:
    """The obstruction of an order-m family as the solve report shows it:
    per overlap or chart and parameter monomial, the degree-(m+1)
    coefficients of the residuals "gluing" (on chart k), "ideal" and, in
    extended mode, "jacobi", with 0 for a row that has none."""
    problem = state.problem
    m1 = state.order + 1
    blocks = [("overlap_part", "gluing", "nor", format_poly),
              ("tangent_part", "ideal", "nor", format_polyvector)]
    if problem.mode == "extended":
        blocks.append(("ambient_part", "jacobi", "amb", format_polyvector))
    out = {"order": m1, "mode": problem.mode}
    for label, key, shape, fmt in blocks:
        block = out[label] = {}
        for at, rows in sorted(state.residuals[key].items()):
            monomials = set().union(*(ser.homogeneous(m1)
                                      for _, ser in _slots(shape, rows)))
            block["|".join(at) if isinstance(at, tuple) else at] = {
                format_param_monomial(problem.params, te): _chunk_map(
                    shape, lambda ser: fmt(ser.terms[te])
                    if te in ser.terms else "0", rows)
                for te in sorted(monomials)}
    return out


def _parse_weights(text: str):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad weight range {text!r}; expected a..b")
    if hi < lo:
        raise _UsageError(f"empty weight range {text!r}")
    return list(range(lo, hi + 1))


def _parse_seed(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"bad seed {text!r}; expected comma-separated "
                          "integers")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}")
    return parse(text)


def _descriptor(doc, kind):
    if kind in ("normal", "extended"):
        return build_complex(kind, submanifold=doc.submanifold())
    if kind == "bivector":
        return build_complex("bivector", manifold=doc.manifold())
    raise _UsageError("the problem-file format does not carry line-bundle "
                      "data; build that complex through the library")


def _report_header(command: str, doc) -> dict:
    rep = {"schema": SCHEMA, "command": command}
    if doc is not None and doc.name:
        rep["manifold"] = doc.name
    return rep


def _warn_list(doc):
    return [f"line {ln}, column {col}: {msg}" for ln, col, msg in doc.warnings]


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_validate(args):
    doc = _load(args.file)
    rep = _report_header("validate", doc)
    if doc.warnings:
        rep["warnings"] = _warn_list(doc)
    atlas = doc.space.validate()
    rep["atlas"] = {"inverses": atlas["inverses"], "cocycles": atlas["cocycles"]}
    poisson = check_poisson_manifold(doc.manifold())
    rep["jacobi"] = poisson["jacobi"]
    rep["structure_gluing"] = poisson["gluing"]
    ok = atlas["pass"] and poisson["pass"]
    if doc.normal_spec:
        try:
            doc.submanifold()
            rep["submanifold"] = "poisson"
        except NotPoissonSubmanifold as e:
            rep["submanifold"] = "not-poisson"
            rep["submanifold_error"] = str(e)
            ok = False
    rep["pass"] = ok
    return rep, (0 if ok else 2)


def _cmd_tensors(args):
    doc = _load(args.file)
    S = doc.submanifold()
    rep = _report_header("tensors", doc)
    rep["codimension"] = S.codim
    charts = {}
    for name in S.present_charts():
        charts[name] = {
            "normal": list(S.normal[name]),
            "structure_fields": [[format_polyvector(v) for v in row]
                                 for row in S.structure_fields_restricted(name)],
        }
    rep["charts"] = charts
    overlaps = {}
    for (i, k) in S.space.overlap_pairs():
        if S.normal.get(i) is None or S.normal.get(k) is None:
            continue
        overlaps[f"{i}|{k}"] = {
            "normal_transition": [format_poly(S.normal_transition(i, k, a))
                                  for a in range(S.codim)],
            "first_order": [[format_poly(e) for e in row]
                            for row in S.first_order[(i, k)]],
        }
    rep["overlaps"] = overlaps
    return rep, 0


def _cmd_h0(args):
    doc = _load(args.file)
    desc = _descriptor(doc, args.complex_kind)
    rep = _report_header("h0", doc)
    rep["complex"] = args.complex_kind
    if args.weights is not None:
        weights = _parse_weights(args.weights)
        report = affine_hyper(desc, weights, degrees=(0,))
        rep["engine"] = report.engine
        rep["weights"] = {str(w): report.weights["H0"][w] for w in weights}
        rep["dimensions"] = [report.weights["H0"][w] for w in weights]
        rep["dimension"] = report.dimension
        rep["basis"] = {str(w): [_render_cochain(c) for c in report.basis[w]]
                        for w in weights}
        return rep, 0
    report = h0_complex(desc, args.bound)
    rep["engine"] = report.engine
    rep["dimension"] = report.dimension
    rep["degree_bound"] = report.degree_bound
    rep["stable"] = report.stable
    rep["section_dimension"] = report.section_dimension
    rep["basis"] = [_render_cochain(c) for c in report.basis]
    return rep, 0


def _cmd_hyper(args):
    doc = _load(args.file)
    desc = _descriptor(doc, args.complex_kind)
    rep = _report_header("hyper", doc)
    rep["complex"] = args.complex_kind
    if not doc.space.transitions:
        if args.weights is None:
            raise _UsageError("single-chart spaces need --weights a..b")
        weights = _parse_weights(args.weights)
        report = affine_hyper(desc, weights, degrees=(0, 1))
        rep["engine"] = report.engine
        rep["h0"] = {str(w): report.weights["H0"][w] for w in weights}
        rep["h1"] = {str(w): report.weights["H1"][w] for w in weights}
        return rep, 0
    report = atlas_hyper_truncated(desc, args.bound)
    rep["engine"] = report.engine
    rep["h1_estimate"] = report.dimension
    rep["window_bound"] = report.degree_bound
    rep["truncated"] = report.truncated
    rep["notes"] = list(report.notes)
    return rep, 0


def _family_report(state) -> dict:
    S = state.problem.submanifold
    fam = {}
    for name in sorted(state.phi):
        cvars = S.space.chart(name).vars
        fam[name] = {w: format_series(ser, cvars)
                     for w, ser in zip(S.normal[name], state.phi[name])}
    return fam


def _lambda_report(state) -> dict:
    space = state.problem.space
    return {name: format_pv_series(state.lam[name], space.chart(name).vars,
                                   state.params)
            for name in space.chart_names}


def _cmd_solve(args):
    doc = _load(args.file)
    seed = _parse_seed(args.seed) if args.seed else None
    prob = doc.problem(order=args.order, degree=args.degree, mode=args.mode,
                       seed=seed, bound=args.bound)
    res = run_solver(prob)
    rep = _report_header("solve", doc)
    rep["mode"] = prob.mode
    rep["order"] = prob.order
    rep["degree"] = prob.degree
    if res.h0 is not None:
        rep["first_order_dimension"] = res.h0.dimension
    rep["parameters"] = list(prob.params)
    if res.ok:
        rep["family"] = _family_report(res.state)
        if prob.mode != "fixed":
            rep["lambda"] = _lambda_report(res.state)
        rep["verify"] = res.verify
        rep["characteristic_map_identity"] = res.char_map_identity
        rep["pass"] = True
        return rep, 0
    obs = res.obstructed
    rep["pass"] = False
    rep["obstructed"] = {
        "order": obs.order,
        "witness": obs.witness,
        "tested_degree_bounds": {str(d): str(v) for d, v in
                                 sorted(obs.tested_degrees.items())},
    }
    rep["cocycle"] = _render_cocycle(res.state)
    return rep, 2


def _cmd_verify(args):
    doc = _load(args.file)
    prob = doc.problem(order=args.order)
    fam = doc.family_state(prob)
    report = verify_family(fam, args.order)
    rep = _report_header("verify", doc)
    rep["order"] = report["order"]
    for key in ("gluing", "ideal", "lambda_gluing", "jacobi"):
        if report[key]:
            rep[key] = dict(sorted(report[key].items()))
    rep["pass"] = report["pass"]
    return rep, (0 if report["pass"] else 2)


def _cmd_match(args):
    doc_model = _load(args.model)
    doc_obs = _load(args.observed)
    seed = _parse_seed(args.seed) if args.seed else None
    prob = doc_model.problem(seed=seed)
    if doc_model.family or doc_model.lam:
        model_state = doc_model.family_state(prob)
    else:
        res = run_solver(prob)
        if not res.ok:
            rep = _report_header("match", doc_model)
            rep["pass"] = False
            rep["obstructed"] = {"order": res.obstructed.order,
                                 "witness": res.obstructed.witness}
            return rep, 2
        model_state = res.state
    obs_prob = doc_obs.problem()
    observed = doc_obs.family_state(obs_prob)
    rep = _report_header("match", doc_model)
    rep["model_parameters"] = list(prob.params)
    rep["observed_parameters"] = list(obs_prob.params)
    try:
        h, mrep = match_families(prob, model_state, observed,
                                 order=args.order)
    except MatchFailure as e:
        rep["pass"] = False
        rep["reason"] = e.reason
        rep["message"] = str(e)
        if e.residual is not None:
            rep["residual_zero"] = cochain_is_zero(e.residual)
        return rep, 2
    rep["substitution"] = {prob.params[j]: format_param_series(h[j])
                           for j in range(len(prob.params))}
    rep["orders"] = {str(k): str(v) for k, v in sorted(mrep["orders"].items())}
    rep["pass"] = True
    return rep, 0


def _render_class(cls) -> dict:
    """An artin class, under the order m of the family it obstructs: its
    chart parts, then its overlap parts ("_cech"), ambient before normal."""
    chart, overlap = cls.totals[(cls.order,)]
    return {"order": cls.order - 1, "zero": cls.is_zero(),
            **_render_cochain(chart, ("amb", "nor")),
            **_render_cochain(overlap, ("amb", "nor"), "_cech", "|".join)}


def _cmd_artin(args):
    doc = _load(args.file)
    kind = args.functor or doc.artin
    if kind is None:
        raise _UsageError("no functor: add an `artin` statement to the file "
                          "or pass --functor")
    man = doc.manifold()
    sub = doc.submanifold() if doc.normal_spec and kind != "def" else None
    if kind in ("hilb", "exthilb") and sub is None:
        raise _UsageError(f"functor {kind!r} needs a submanifold statement")
    rep = _report_header("artin", doc)
    rep["functor"] = kind
    fo = artin_first_order(kind, manifold=man, submanifold=sub,
                           bound=args.bound)
    rep["first_order_dimension"] = fo.dimension
    if not (doc.family or doc.lam):
        rep["pass"] = True
        return rep, 0
    if kind == "def":
        report = artin_obstruction(kind, manifold=man,
                                   lam=doc.lambda_family(),
                                   order=args.order, bound=args.bound)
    else:
        prob = doc.problem()
        fam = doc.family_state(prob)
        state = DeformationState(prob, args.order, fam.phi, fam.lam)
        report = artin_obstruction(kind, state=state, bound=args.bound)
    rep["order"] = report.order
    rep["class"] = _render_class(report.cls)
    rep["certificates"] = dict(sorted(report.cls.certificates.items()))
    rep["liftable"] = report.liftable
    if report.witness:
        rep["witness"] = report.witness
    rep["pass"] = report.liftable
    return rep, (0 if report.liftable else 2)


_FILE = (("file", "problem file"),)
_COMPLEX = ("--complex", "complex_kind", None, KINDS, "normal", None)
_WEIGHTS = ("--weights", "weights", None, None, None,
            "weight range a..b (single-chart only)")

# Per subcommand: its handler, its help, its file positionals as (dest,
# help), and its options as (flag, dest, type, choices, default, help), in
# the order of the help text. Every subcommand also takes --json (dest
# `as_json`).
_SUBCOMMANDS = {
    "validate": (_cmd_validate,
                 "check atlas, structure and submanifold consistency",
                 _FILE, ()),
    "tensors": (_cmd_tensors, "print the submanifold structure tensors",
                _FILE, ()),
    "h0": (_cmd_h0, "degree-zero cohomology of a controlling complex",
           _FILE, (
        _COMPLEX, _WEIGHTS,
        ("--bound", "bound", _count, None, None, "section degree bound"))),
    "hyper": (_cmd_hyper, "degree-one cohomology data", _FILE, (
        _COMPLEX, _WEIGHTS,
        ("--bound", "bound", _count, None, 4,
         "Laurent window bound for the atlas estimate"))),
    "solve": (_cmd_solve, "construct a family order by order", _FILE, (
        ("--order", "order", _count, None, None, "target order override"),
        ("--degree", "degree", _count, None, None, "degree bound override"),
        ("--mode", "mode", None, MODES, None, "mode override"),
        ("--seed", "seed", None, None, None,
         "comma-separated degree-zero basis indices"),
        ("--bound", "bound", _count, None, None,
         "section degree bound override"))),
    "verify": (_cmd_verify, "re-verify the family written in the file",
               _FILE, (
        ("--order", "order", _count, None, None,
         "verification order override"),)),
    "match": (_cmd_match, "match a model family to an observed one",
              (("model", "model problem file"),
               ("observed", "observed family file")), (
        ("--order", "order", _count, None, None, "matching order override"),
        ("--seed", "seed", None, None, None,
         "comma-separated degree-zero basis indices for the model solve"))),
    "artin": (_cmd_artin, "small-extension obstruction report", _FILE, (
        ("--functor", "functor", None, FUNCTORS, None,
         "functor override (defaults to the file's artin statement)"),
        ("--order", "order", _count, None, 0,
         "extension step: class at the next order"),
        ("--bound", "bound", _count, None, 3,
         "degree bound for sections and lifts"))),
}


def run_command(argv) -> tuple[int, str]:
    """Run one command; returns (exit code, report text).

    A canonical command line is read by `_fast_args` from `_SUBCOMMANDS`
    alone; any other (help, abbreviations, --flag=value, options before
    the files, usage errors) by an `argparse` parser built for this call,
    so -h/--help still prints argparse's help and raises SystemExit(0)."""
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except _UsageError as e:
            return 1, f"usage error: {e}\n"
    try:
        rep, code = _SUBCOMMANDS[args.command][0](args)
    except _UsageError as e:
        return 1, f"usage error: {e}\n"
    except ParseError as e:
        return 1, f"parse error: {e}\n"
    except NotPoissonSubmanifold as e:
        rep = {"schema": SCHEMA, "command": args.command,
               "error": "not-poisson-submanifold", "message": str(e),
               "pass": False}
        return 2, _emit(rep, args.as_json)
    except ToolkitError as e:
        return 1, f"error: {type(e).__name__}: {e}\n"
    return code, _emit(rep, args.as_json)


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if code == 0 else sys.stderr
    out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
