"""Tests for the problem-description language and the command-line frontend.

The language tests pin the parsed document model, the canonical rendering,
round-trip stability, warning and error reporting with line positions, and
the construction of solver-ready objects from documents.  The frontend tests
drive every subcommand in-process through ``run_command`` against the bundled
problem corpus, pinning report fields, exit codes, and byte determinism.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poissondef
from poissondef import cli
from poissondef.cli import run_command
from poissondef.deformation import run_solver, verify_family
from poissondef.dsl import (_fmt_monomial, _join_terms, format_param_monomial,
                            format_param_series, format_poly,
                            format_polyvector, format_pv_series,
                            format_series, parse)
from poissondef.errors import InconsistentData, ParseError
from poissondef.geometry import ABSENT, ChartedSpace
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly, TruncatedSeries

from report_contract import commands as contract_commands

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import commands as workload_commands  # noqa: E402

EXAMPLES = Path(poissondef.__file__).parent / "examples"
CORPUS = sorted(p.name for p in EXAMPLES.glob("*.pdef"))

P3_HYPERPLANE = """
# hyperplane inside three-dimensional projective space
manifold p3_hyperplane;
builtin P3;
poisson on U0: z1 * d/z1 ^ d/z2;
submanifold normal U0: [z3];
submanifold normal U1: [z3];
submanifold normal U2: [z3];
submanifold normal U3: absent;
params t order 4 degree 2;
family U0: z3 = t;
family U1: z3 = t * z1;
family U2: z3 = t * z1;
"""

F0_INSTABILITY = """
manifold f0_instability;
builtin Fm(0);
poisson on U1: xi * d/z ^ d/xi;
submanifold normal U1: [xi];
submanifold normal U2: [xip];
submanifold normal U3: absent;
submanifold normal U4: absent;
params t order 3 degree 2;
mode prescribed;
lambda U1: xi * d/z ^ d/xi - t * z * d/z ^ d/xi;
"""

P2_EXTENDED = """
manifold p2_extended;
builtin P2;
poisson on U0: z1 * d/z1 ^ d/z2;
submanifold normal U0: [z1];
submanifold normal U1: absent;
submanifold normal U2: [z2];
params t1 t2 order 3 degree 2;
mode extended;
family U0: z1 = -t1 * z2 - t2;
family U2: z2 = -t1 - t2 * z1;
lambda U0: z1 * d/z1 ^ d/z2 + t1 * z2 * d/z1 ^ d/z2 + t2 * d/z1 ^ d/z2;
"""

EXPLICIT_ATLAS = """
manifold twisted_line;
chart U0 vars z w;
chart U1 vars y u;
transition U0 -> U1: z = y^-1, w = y^2 * u;
transition U1 -> U0: y = z^-1, u = z^2 * w;
"""

CANONICAL_HYPERPLANE = """\
manifold p3_hyperplane;
builtin P3;
poisson on U0: z1 * d/z1 ^ d/z2;
submanifold normal U0: [z3];
submanifold normal U1: [z3];
submanifold normal U2: [z3];
submanifold normal U3: absent;
params t order 4 degree 2;
family U0: z3 = t;
family U1: z3 = z1 * t;
family U2: z3 = z1 * t;
"""


def corpus_path(name):
    return str(EXAMPLES / name)


def run(*argv):
    return run_command(list(argv))


def jrun(*argv):
    code, text = run_command(list(argv) + ["--json"])
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# language: documents and derived objects
# ---------------------------------------------------------------------------


def test_hyperplane_document_fields():
    doc = parse(P3_HYPERPLANE)
    assert doc.name == "p3_hyperplane"
    assert doc.builtin == ("P3", ())
    assert doc.params == ("t",)
    assert doc.order == 4
    assert doc.degree == 2
    man = doc.manifold()
    u0_vars = man.space.chart("U0").vars
    assert man.bivector("U0").terms[(0, 1)] == LaurentPoly.variable(
        u0_vars, "z1")
    sub = doc.submanifold()
    assert sub.codim == 1
    assert set(sub.present_charts()) == {"U0", "U1", "U2"}


def test_hyperplane_solver_matches_file_family():
    doc = parse(P3_HYPERPLANE)
    problem = doc.problem()
    result = run_solver(problem)
    assert result.ok and result.verify["pass"]
    family = doc.family_state(problem)
    report = verify_family(family, 4)
    assert report["pass"], report
    for name in doc.submanifold().present_charts():
        diff = result.state.phi[name][0] - family.phi[name][0]
        assert diff.is_zero(), name


def test_instability_document_obstructs():
    doc = parse(F0_INSTABILITY)
    assert doc.mode == "prescribed"
    result = run_solver(doc.problem())
    assert not result.ok
    assert result.obstructed.order == 1


def test_lambda_family_auto_push():
    doc = parse(F0_INSTABILITY)
    lam_family = doc.lambda_family(3)
    man = doc.manifold()
    for name in man.space.chart_names:
        diff = lam_family[name].order_zero() - man.bivector(name)
        assert diff.is_zero(), name


def test_extended_family_document_verifies():
    doc = parse(P2_EXTENDED)
    problem = doc.problem()
    family = doc.family_state(problem)
    report = verify_family(family, 3)
    assert report["pass"], report


def test_explicit_atlas_document():
    doc = parse(EXPLICIT_ATLAS)
    validation = doc.space.validate()
    assert validation["pass"], validation
    transition = doc.transitions[("U0", "U1")]
    assert transition["z"].terms == {(-1, 0): Fraction(1)}


def render(doc) -> str:
    """Canonical problem-file text; parse(render(doc)) reproduces doc. It is
    the round trip's oracle, which no command prints."""
    lines = []
    if doc.name:
        lines.append(f"manifold {doc.name};")
    if doc.builtin is not None:
        name, args = doc.builtin
        if args:
            lines.append(f"builtin {name}({', '.join(str(a) for a in args)});")
        else:
            lines.append(f"builtin {name};")
    else:
        for chart in doc.charts:
            lines.append(f"chart {chart.name} vars {' '.join(chart.vars)};")
        for (i, k) in sorted(doc.transitions):
            tmap = doc.transitions[(i, k)]
            body = ", ".join(f"{v} = {format_poly(tmap[v])}"
                             for v in doc.space.chart(i).vars if v in tmap)
            lines.append(f"transition {i} -> {k}: {body};")
    space = doc.space if (doc.builtin or doc.charts) else None
    for name in (space.chart_names if space else []):
        if name in doc.poisson:
            lines.append(f"poisson on {name}: "
                         f"{format_polyvector(doc.poisson[name])};")
    for name in (space.chart_names if space else []):
        if name in doc.normal_spec:
            spec = doc.normal_spec[name]
            if spec == ABSENT:
                lines.append(f"submanifold normal {name}: absent;")
            else:
                lines.append(f"submanifold normal {name}: "
                             f"[{', '.join(spec)}];")
    if doc.params:
        lines.append(f"params {' '.join(doc.params)} order {doc.order} "
                     f"degree {doc.degree};")
    if doc.mode != "fixed":
        lines.append(f"mode {doc.mode};")
    for name in (space.chart_names if space else []):
        if name in doc.family:
            cvars = space.chart(name).vars
            block = doc.family[name]
            body = ", ".join(f"{v} = {format_series(block[v], cvars)}"
                             for v in cvars if v in block)
            lines.append(f"family {name}: {body};")
    for name in (space.chart_names if space else []):
        if name in doc.lam:
            body = format_pv_series(doc.lam[name], space.chart(name).vars,
                                    doc.params)
            lines.append(f"lambda {name}: {body};")
    if doc.artin:
        lines.append(f"artin {doc.artin};")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [P3_HYPERPLANE, F0_INSTABILITY, P2_EXTENDED, EXPLICIT_ATLAS],
    ids=["hyperplane", "instability", "extended", "atlas"],
)
def test_round_trip_samples(text):
    first = render(parse(text))
    second = render(parse(first))
    assert first == second


@pytest.mark.parametrize("name", CORPUS)
def test_round_trip_corpus(name):
    text = (EXAMPLES / name).read_text()
    first = render(parse(text))
    second = render(parse(first))
    assert first == second


def test_canonical_render_pinned():
    assert render(parse(P3_HYPERPLANE)) == CANONICAL_HYPERPLANE


def test_degenerate_wedge_warning():
    doc = parse(
        """
manifold degenerate;
builtin P2;
poisson on U0: d/z1 ^ d/z1;
"""
    )
    assert doc.poisson["U0"].is_zero()
    assert len(doc.warnings) == 1
    assert "degenerate wedge" in doc.warnings[0][2]


def expect_parse_error(text, needle):
    with pytest.raises(ParseError) as info:
        parse(text)
    message = str(info.value)
    assert needle in message, (needle, message)
    return message


def test_unsorted_wedges_take_the_permutation_sign():
    doc = parse("chart U vars a b c;\n"
                "poisson on U: a * d/c ^ d/a + d/b ^ d/a;\n")
    assert render(doc).splitlines()[1] == (
        "poisson on U: -d/a ^ d/b - a * d/a ^ d/c;")


def test_negative_power_of_a_non_monomial(tmp_path):
    path = tmp_path / "power.pdef"
    path.write_text("builtin P2;\n"
                    "poisson on U0: (z1 + 1)^-2 * d/z1 ^ d/z2;\n")
    code, out = run("validate", str(path))
    assert code == 1
    assert out == ("parse error: line 2, column 26: negative power of a "
                   "non-monomial\n")


def test_parse_error_positions():
    message = expect_parse_error("manifold x\nbuiltin P2;", "expected ';'")
    assert "line 2" in message
    message = expect_parse_error(
        "builtin P2;\npoisson on U0: zz * d/z1 ^ d/z2;",
        "unknown variable 'zz'",
    )
    assert "line 2" in message
    expect_parse_error(
        """
builtin P2;
submanifold normal U0: [z1];
submanifold normal U1: absent;
submanifold normal U2: [z2];
params t order 2 degree 2;
family U0: z1 = t^3;
""",
        "exceeds the declared order",
    )
    expect_parse_error(
        """
builtin P2;
submanifold normal U0: [z1];
submanifold normal U1: absent;
submanifold normal U2: [z2];
params t order 2 degree 2;
family U0: z2 = t;
""",
        "family assigns non-normal variable 'z2' on chart 'U0'",
    )
    expect_parse_error(
        """builtin P2;
params t order 2 degree 1;
mode prescribed;
lambda U0: z1 * d/z1 ^ d/t;
""",
        "line 4, column 24: unknown variable 't'",
    )
    # a parameter in a poisson statement is a parse error at its position
    expect_parse_error(
        "builtin P2;\nparams t order 2 degree 1;\n"
        "poisson on U0: t * z1 * d/z1 ^ d/z2;\n",
        "line 3, column 16: unknown variable 't'",
    )


def test_a_repeated_left_side_is_a_parse_error():
    """A variable assigned twice on one chart, in one list or by a second
    `family` statement, is an error at its second token; two `family`
    statements may assign different variables of one chart."""
    family = ("builtin P3;\nsubmanifold normal U0: [z1, z2];\n"
              "params t order 2 degree 2;\nfamily U0: z1 = t;\n")
    expect_parse_error(
        "chart A vars x y;\nchart B vars u v;\n"
        "transition A -> B: x = u, x = v;\n",
        "line 3, column 27: 'x' is assigned twice on chart 'A'")
    expect_parse_error(family + "family U0: z2 = t, z2 = t^2;\n",
                       "line 5, column 20: 'z2' is assigned twice on chart "
                       "'U0'")
    expect_parse_error(family + "family U0: z1 = t^2;\n",
                       "line 5, column 12: 'z1' is assigned twice on chart "
                       "'U0'")
    doc = parse(family + "family U0: z2 = t^2;\n")
    assert sorted(doc.family["U0"]) == ["z1", "z2"]


# ---------------------------------------------------------------------------
# frontend: corpus validation
# ---------------------------------------------------------------------------


def test_corpus_is_nonempty():
    assert len(CORPUS) == 23, CORPUS


@pytest.mark.parametrize("name", CORPUS)
def test_validate_corpus(name):
    code, text = run("validate", corpus_path(name))
    assert code == 0, (name, text)


def test_validate_one_way_transition(tmp_path):
    # A -> C is declared but C -> A is not: the atlas is rejected when it is
    # built, before any command runs on it
    text = ("chart A vars x y;\n"
            "chart B vars u v;\n"
            "chart C vars p q;\n"
            "transition A -> B: x = u, y = v;\n"
            "transition B -> A: u = x, v = y;\n"
            "transition B -> C: u = p, v = q;\n"
            "transition C -> B: p = u, q = v;\n"
            "transition A -> C: x = p, y = q;\n")
    message = "error: InconsistentData: transition A->C has no inverse C->A\n"
    path = tmp_path / "one_way.pdef"
    path.write_text(text + "poisson on A: d/x ^ d/y;\n")
    for command in ("validate", "tensors", "h0", "solve"):
        for argv in ([command, str(path)], [command, str(path), "--json"]):
            assert run_command(argv) == (1, message)
    doc = parse(text + "transition C -> A: p = x, q = y;\n")
    del doc.transitions[("C", "A")]
    with pytest.raises(InconsistentData, match="has no inverse C->A"):
        ChartedSpace(doc.name, doc.charts, doc.transitions)


def test_lambda_family_spreads_along_the_overlap_graph(tmp_path):
    # A and C do not overlap: the family declared on A reaches C through B
    path = tmp_path / "chain.pdef"
    path.write_text("chart A vars x y;\n"
                    "chart B vars u v;\n"
                    "chart C vars p q;\n"
                    "transition A -> B: x = u, y = v;\n"
                    "transition B -> A: u = x, v = y;\n"
                    "transition B -> C: u = p, v = q;\n"
                    "transition C -> B: p = u, q = v;\n"
                    "poisson on A: x * d/x ^ d/y;\n"
                    "submanifold normal A: [x];\n"
                    "submanifold normal B: [u];\n"
                    "submanifold normal C: [p];\n"
                    "params t order 2 degree 1;\n"
                    "mode prescribed;\n"
                    "lambda A: x * d/x ^ d/y + t * x * d/x ^ d/y;\n")
    for command in ("validate", "verify", "solve"):
        code, text = run(command, str(path))
        assert code == 0, (command, text)
        assert text.endswith("pass: yes\n"), (command, text)
    lam = parse(path.read_text()).lambda_family()
    assert format_pv_series(lam["C"], ("p", "q"), ("t",)) == (
        "p * d/p ^ d/q + p * t * d/p ^ d/q")


def test_an_invalid_atlas_is_not_reported_as_an_unknown_chart(tmp_path):
    atlas = ("chart A vars x y;\n"
             "chart B vars u v;\n"
             "transition A -> B: x = u;\n"
             "transition B -> A: u = x, v = y;\n")
    message = "error: InconsistentData: transition A->B misses variables ['y']\n"
    for text in (atlas, atlas + "poisson on A: d/x ^ d/y;\n"):
        path = tmp_path / "missing.pdef"
        path.write_text(text)
        assert run("validate", str(path)) == (1, message)


def test_atlas_statements_after_the_atlas_is_in_use(tmp_path):
    path = tmp_path / "late.pdef"
    path.write_text("chart A vars x y;\n"
                    "chart B vars u v;\n"
                    "poisson on A: d/x ^ d/y;\n"
                    "transition A -> B: x = u, y = v;\n"
                    "transition B -> A: u = x, v = y;\n")
    assert run("validate", str(path)) == (
        1, "parse error: line 4, column 1: 'transition' statement after "
           "the atlas is in use\n")
    for late in ("chart C vars p q;", "builtin P2;"):
        expect_parse_error("builtin P1;\nsubmanifold normal U0: [z1];\n"
                           + late, "statement after the atlas is in use")
    # the same statements in `render`'s order pass
    path.write_text(render(parse(path.read_text().replace(
        "poisson on A: d/x ^ d/y;\n", ""))) + "poisson on A: d/x ^ d/y;\n")
    assert run("validate", str(path))[0] == 0


@pytest.mark.parametrize("text", ["builtin Pn(x);\n",
                                  "builtin Pn;\npoisson on U0: d/z1 ^ d/z1;\n",
                                  "builtin Fm(m);\nsubmanifold normal U1: [xi];\n"])
def test_builtin_without_an_integer_argument(tmp_path, text):
    path = tmp_path / "builtin.pdef"
    path.write_text(text)
    code, out = run("validate", str(path))
    assert code == 1
    assert re.fullmatch(r"error: InconsistentData: builtin atlas (Pn|Fm) "
                        r"needs an integer argument\n", out)


# ---------------------------------------------------------------------------
# frontend: section-space reports
# ---------------------------------------------------------------------------


def test_h0_affine_weight_window():
    code, report = jrun(
        "h0", corpus_path("c3_line.pdef"), "--complex", "normal",
        "--weights", "0..5",
    )
    assert code == 0
    assert report["schema"] == 1
    assert report["dimensions"] == [1, 1, 1, 1, 1, 1]
    assert report["basis"]["3"][0]["normal"]["U"] == ["0", "x3^3"]


def test_graded_engine_refuses_a_structure_that_is_not_weight_homogeneous(
        tmp_path):
    """(x1 + x1*x3) d/x1 ^ d/x2 has terms of weights 0 and 1, so no graded
    answer is certified: h0 and hyper exit 1 with one line, on a window
    that the differential would not leave as well."""
    path = tmp_path / "mixed.pdef"
    path.write_text("builtin Affine(3);\n"
                    "poisson on U: (x1 + x1*x3) * d/x1 ^ d/x2;\n"
                    "submanifold normal U: [x1, x2];\n")
    for command in ("h0", "hyper"):
        for window in ("--weights=-1..-1", "--weights=0..3"):
            assert run(command, str(path), window) == (
                1, "error: InconsistentData: differential left the graded "
                   "window; structure is not weight-homogeneous\n")


def test_h0_atlas_dimensions():
    code, report = jrun("h0", corpus_path("p3_hyperplane.pdef"))
    assert code == 0 and report["dimension"] == 1
    code, report = jrun("h0", corpus_path("p3_line.pdef"))
    assert code == 0 and report["dimension"] == 2
    code, report = jrun(
        "h0", corpus_path("p2_extended.pdef"), "--complex", "extended"
    )
    assert code == 0 and report["dimension"] == 8


def test_h0_bivector_dimensions():
    dims = []
    for m in range(6):
        code, report = jrun(
            "h0", corpus_path(f"f{m}_bivector.pdef"), "--complex", "bivector"
        )
        assert code == 0
        dims.append(report["dimension"])
    assert dims == [9, 9, 9, 9, 10, 11]


def test_h0_extended_dimensions():
    dims = []
    for m in (0, 1, 3, 4, 5):
        code, report = jrun(
            "h0", corpus_path(f"f{m}_extended.pdef"), "--complex", "extended"
        )
        assert code == 0
        dims.append(report["dimension"])
    assert dims == [7, 7, 9, 10, 11]


def test_hyper_reports():
    code, report = jrun(
        "hyper", corpus_path("c3_line.pdef"), "--weights", "0..3"
    )
    assert code == 0
    assert set(report["h0"]) == {"0", "1", "2", "3"}
    assert set(report["h1"]) == {"0", "1", "2", "3"}
    code, report = jrun(
        "hyper", corpus_path("p3_hyperplane.pdef"), "--bound", "2"
    )
    assert code == 0
    assert report["truncated"] is True
    assert report["h1_estimate"] >= 0


def test_tensors_report():
    code, report = jrun("tensors", corpus_path("p3_hyperplane.pdef"))
    assert code == 0
    assert report["codimension"] == 1
    assert "U0|U1" in report["overlaps"]


# ---------------------------------------------------------------------------
# frontend: solving, verifying, matching
# ---------------------------------------------------------------------------


def test_solve_hyperplane():
    code, report = jrun("solve", corpus_path("p3_hyperplane.pdef"))
    assert code == 0
    assert report["family"]["U0"]["z3"] == "t"
    assert report["verify"]["pass"] is True
    assert report["characteristic_map_identity"] is True


def test_solve_line_seeded():
    code, report = jrun("solve", corpus_path("p3_line.pdef"), "--seed", "1,0")
    assert code == 0, report
    assert report["family"]["U0"]["z1"] == "0"
    assert report["family"]["U0"]["z3"] == "t2 + z2 * t1"


@pytest.mark.parametrize("seed, index, why", [
    ("0,9", "9", "out of range"), ("0,-1", "-1", "out of range"),
    ("0,0", "0", "repeated")])
def test_solve_rejects_bad_seed_index(seed, index, why):
    """The degree-zero basis of p2_extended has 8 elements; an index outside
    range(8), or one given twice, ends in one line naming it and the
    dimension."""
    code, text = run("solve", corpus_path("p2_extended.pdef"), "--seed", seed)
    assert code == 1
    assert text == (f"error: ParameterMismatch: seed index {index} is {why} "
                    "for a degree-zero basis of dimension 8\n")


@pytest.mark.parametrize("name", ["f0_instability", "f2_instability"])
def test_solve_instability_exits_two(name):
    code, report = jrun("solve", corpus_path(f"{name}.pdef"))
    assert code == 2
    assert report["obstructed"]["order"] == 1
    assert "equation" in report["obstructed"]["witness"]


def test_solve_instability_degree_sweep():
    for degree in range(1, 7):
        code, report = jrun(
            "solve", corpus_path("f0_instability.pdef"), "--degree",
            str(degree),
        )
        assert code == 2, (degree, report)
        assert report["obstructed"]["order"] == 1


def test_verify_families():
    code, report = jrun(
        "verify", corpus_path("p3_hyperplane.pdef"), "--order", "4"
    )
    assert code == 0 and report["pass"] is True
    code, report = jrun("verify", corpus_path("p3_line.pdef"), "--order", "4")
    assert code == 0 and report["pass"] is True
    code, report = jrun("verify", corpus_path("p2_extended.pdef"))
    assert code == 0 and report["pass"] is True


def test_verify_broken_family_exits_two():
    code, report = jrun("verify", corpus_path("p3_line_bad.pdef"))
    assert code == 2
    assert report["pass"] is False
    assert report["ideal"] == {"U0": 0, "U2": 0}


def test_match_reparametrizations():
    code, report = jrun(
        "match", corpus_path("p3_hyperplane.pdef"),
        corpus_path("p3_hyperplane_s.pdef"),
    )
    assert code == 0 and report["substitution"]["t"] == "s"
    code, report = jrun(
        "match", corpus_path("p3_hyperplane.pdef"),
        corpus_path("p3_hyperplane_s2.pdef"),
    )
    assert code == 0 and report["substitution"]["t"] == "s + s^2"


def test_match_failure_exits_two():
    code, report = jrun(
        "match", corpus_path("p3_line_t.pdef"), corpus_path("p3_line_bad.pdef"),
        "--seed", "0",
    )
    assert code == 2
    assert report["pass"] is False
    assert report["residual_zero"] is False


PRESCRIBED_HYPERPLANE = """
builtin P3;
poisson on U0: z1 * d/z1 ^ d/z2;
submanifold normal U0: [z3];
submanifold normal U1: [z3];
submanifold normal U2: [z3];
submanifold normal U3: absent;
params t order 3 degree 2;
mode prescribed;
lambda U0: z1 * d/z1 ^ d/z2 + t * d/z1 ^ d/z2;
"""


def test_prescribed_match_reads_the_ambient_family(tmp_path):
    """Two prescribed ambient families with no normal motion: the model at
    t = 0 is the central structure, which is not the observed family."""
    model = tmp_path / "model.pdef"
    model.write_text(PRESCRIBED_HYPERPLANE)
    observed = tmp_path / "observed.pdef"
    observed.write_text(PRESCRIBED_HYPERPLANE.replace("params t", "params s")
                        .replace("+ t * d/z1", "- s * d/z1"))
    for path in (model, observed):
        assert run("verify", str(path))[0] == 0
    code, report = jrun("match", str(model), str(observed))
    assert code == 0
    assert report["substitution"] == {"t": "-s"}


@pytest.mark.parametrize("model,observed", [
    ("p3_hyperplane.pdef", "p3_line_t.pdef"),
    ("p3_line.pdef", "p3_hyperplane_s.pdef"),
    ("p2_extended.pdef", "p3_hyperplane_s.pdef"),
])
def test_match_on_another_submanifold_is_an_error(model, observed):
    code, text = run_command(["match", corpus_path(model),
                              corpus_path(observed)])
    assert code == 1
    assert text.startswith("error: ") and text.count("\n") == 1


# ---------------------------------------------------------------------------
# frontend: obstruction calculus
# ---------------------------------------------------------------------------


def test_artin_embedded_deformations():
    code, report = jrun("artin", corpus_path("c3_line.pdef"))
    assert code == 0
    assert report["liftable"] is True
    assert report["class"]["zero"] is True
    assert report["first_order_dimension"] == 4


def test_artin_obstructed_exits_two():
    code, report = jrun(
        "artin", corpus_path("f0_instability.pdef"), "--bound", "4"
    )
    assert code == 2
    assert report["liftable"] is False
    assert report["class"]["zero"] is False
    assert report["witness"]


def test_artin_coupled_and_ambient():
    code, report = jrun("artin", corpus_path("p2_extended_t.pdef"))
    assert code == 0 and report["liftable"] is True
    assert report["first_order_dimension"] == 8
    code, report = jrun("artin", corpus_path("p2_def.pdef"))
    assert code == 0 and report["liftable"] is True
    # structure deformations of the rigid projective plane are cubic
    # anticanonical sections: dimension 10
    assert report["first_order_dimension"] == 10


# ---------------------------------------------------------------------------
# frontend: determinism, errors, human output
# ---------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical():
    first = run("h0", corpus_path("p3_hyperplane.pdef"), "--json")
    second = run("h0", corpus_path("p3_hyperplane.pdef"), "--json")
    assert first == second
    first = run("solve", corpus_path("p3_line.pdef"))
    second = run("solve", corpus_path("p3_line.pdef"))
    assert first == second


def test_usage_errors(tmp_path):
    code, text = run("nonsense")
    assert code == 1
    code, text = run("h0", str(tmp_path / "missing.pdef"))
    assert code == 1 and "cannot read" in text
    broken = tmp_path / "broken.pdef"
    broken.write_text("manifold x\nbuiltin P2;\n")
    code, text = run("h0", str(broken))
    assert code == 1 and "line 2" in text
    code, text = run(
        "h0", corpus_path("p3_hyperplane.pdef"), "--weights", "0..3"
    )
    assert code == 1, text
    code, text = run("h0", corpus_path("c3_line.pdef"), "--weights", "3..0")
    assert code == 1 and "usage error" in text


@pytest.mark.parametrize("argv", [
    ["artin", "p3_hyperplane.pdef", "--order", "-1"],
    ["artin", "p3_hyperplane.pdef", "--bound", "-1"],
    ["match", "p3_hyperplane.pdef", "p3_hyperplane.pdef", "--order", "-1"],
    ["solve", "p3_hyperplane.pdef", "--order", "-1"],
    ["solve", "p3_hyperplane.pdef", "--degree", "-1"],
    ["solve", "p3_hyperplane.pdef", "--bound", "-1"],
    ["verify", "p3_hyperplane.pdef", "--order", "-1"],
    ["h0", "p3_hyperplane.pdef", "--bound", "-1"],
    ["hyper", "p3_hyperplane.pdef", "--bound", "-1"],
], ids=" ".join)
def test_negative_overrides_are_usage_errors(argv):
    """The problem language has no negative numbers; neither do the
    --order, --degree and --bound overrides of any subcommand."""
    resolved = [corpus_path(a) if a.endswith(".pdef") else a for a in argv]
    for fmt in ((), ("--json",)):
        code, text = run(*resolved, *fmt)
        assert code == 1
        assert text == (f"usage error: argument {argv[-2]}: must be "
                        "non-negative, got -1\n")


def test_non_integer_override_keeps_the_int_message():
    code, text = run("solve", corpus_path("p3_hyperplane.pdef"), "--order", "x")
    assert (code, text) == (1, "usage error: argument --order: invalid int "
                               "value: 'x'\n")


SUBCOMMANDS = ("validate", "tensors", "h0", "hyper", "solve", "verify",
               "match", "artin")
PARSER_ARGVS = (
    [[], ["nonsense"], ["--help"], ["-h"], ["--he"], ["--json", "h0", "f"],
     ["h0", "f", "--complex", "bogus"], ["h0", "f", "--bo", "3"],
     ["h0", "f", "--bound", "-1"], ["solve", "f", "--order", "x"],
     ["solve", "f", "--mode", "extended", "--seed", "0,1", "--json"],
     ["artin", "f", "--functor", "def", "--order", "2"], ["match", "a"],
     ["validate", "f", "extra"], ["verify", "--order", "3", "f"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [[name, "f", "g"][:3 if name == "match" else 2] for name in SUBCOMMANDS])


def _argparse_args(argv, parser=None):
    """vars() of the namespace an argparse parser built from
    `cli._SUBCOMMANDS` gives for argv."""
    return vars((parser or cli.build_parser()).parse_args(argv))


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_fast_args_read_a_parser_argv_as_argparse_does(argv):
    """`_fast_args` leaves an argv to argparse or reads it as argparse
    does."""
    fast = cli._fast_args(argv)
    assert fast is None or vars(fast) == _argparse_args(argv)


def test_fast_args_read_every_contract_argv_as_argparse_does():
    parser = cli.build_parser()
    for argv in contract_commands():
        fast = cli._fast_args(argv)
        assert fast is None or vars(fast) == _argparse_args(argv, parser), argv


_OPTIONS = [o for *_, options in cli._SUBCOMMANDS.values() for o in options]
FLAGS = sorted({o[0] for o in _OPTIONS} | {"--json"})
CHOICES = sorted({c for o in _OPTIONS for c in o[3] or ()})
TOKENS = (*SUBCOMMANDS, *FLAGS, *CHOICES, "--bo", "--ord", "--js", "--c",
          "--order=2", "--json=1", "--complex=extended", "--", "-", "-h",
          "--help", "-1", "x", "", "0", "3", "0,1", "0..3", "f.pdef",
          "g.pdef")
VALUES = ("0", "3", "0,1", "0..3", "x", "", *CHOICES)


@st.composite
def command_lines(draw):
    """A subcommand, its files, then its flags, each but --json with a
    value; one part in eight is any token of the alphabet instead."""
    def pick(tokens):
        return draw(st.sampled_from(
            TOKENS if draw(st.integers(0, 7)) == 0 else tokens))

    sub = pick(SUBCOMMANDS)
    *_, files, options = cli._SUBCOMMANDS.get(sub, (None, (), ()))
    argv = [sub, *(pick(("f.pdef", "g.pdef")) for _ in files)]
    for _ in range(draw(st.integers(0, 4))):
        argv.append(pick(("--json", *(o[0] for o in options))))
        if argv[-1] != "--json":
            argv.append(pick(VALUES))
    return argv


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.one_of(command_lines(), st.lists(st.sampled_from(TOKENS),
                                           max_size=8)))
def test_fast_args_read_drawn_command_lines_as_argparse_does(argv):
    fast = cli._fast_args(argv)
    assert fast is None or vars(fast) == _argparse_args(argv)


def _parsers_built(monkeypatch, argv):
    """The prog of every argparse parser that `run_command(argv)` builds,
    and its exit code."""
    built = []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    code, _ = run_command(argv)
    return built, code


def test_a_well_formed_command_builds_no_parser(monkeypatch):
    argv = ["validate", corpus_path("p3_line.pdef")]
    assert _parsers_built(monkeypatch, argv) == ([], 0)


@pytest.mark.parametrize("argv", [["h0", "p3_line.pdef", "--bo", "3"],
                                  ["nonsense"]], ids=" ".join)
def test_a_malformed_command_builds_every_parser(argv, monkeypatch):
    argv = [corpus_path(a) if a.endswith(".pdef") else a for a in argv]
    built, _ = _parsers_built(monkeypatch, argv)
    assert built == ["poissondef",
                     *(f"poissondef {name}" for name in SUBCOMMANDS)]


@pytest.mark.parametrize("argv", [["--help"], ["h0", "-h"]], ids=" ".join)
def test_help_is_argparses_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        run_command(argv)
    assert raised.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: poissondef", *argv[:-1]]))
    assert err == ""


@pytest.mark.parametrize("workload", ["sections", "solver", "corpus"])
def test_every_workload_argv_takes_the_fast_path(workload):
    argvs = workload_commands(workload)
    assert argvs
    assert [a for a in argvs if cli._fast_args(a) is None] == []


# contract argvs that argparse reads without an error but that are not
# canonical: an abbreviation, --flag=value, an option before the file and
# a value that starts with "-"
ARGPARSE_ONLY = (
    ("h0", "p3_hyperplane.pdef", "--bo", "3"),
    ("solve", "p3_hyperplane.pdef", "--order=2"),
    ("verify", "--order", "3", "p3_hyperplane.pdef"),
    ("solve", "p3_hyperplane.pdef", "--seed", "-1"),
)


def test_every_well_formed_contract_argv_takes_the_fast_path():
    parser = cli.build_parser()
    left = set()
    for argv in contract_commands():
        try:
            parser.parse_args(argv)
        except cli._UsageError:
            continue
        if cli._fast_args(argv) is None:
            left.add(tuple(argv))
    assert left == {(*argv, *fmt) for argv in ARGPARSE_ONLY
                    for fmt in ((), ("--json",))}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("name", ["f0_extended.pdef", "f5_extended.pdef"])
def test_solver_commands_need_a_params_statement(command, name):
    for argv in ([command, corpus_path(name)],
                 [command, corpus_path(name), "--json"]):
        code, text = run_command(argv)
        assert code == 1
        assert text == ("error: InconsistentData: problem file has no params "
                        "statement, so the deformation problem has no order "
                        "and degree\n")


@pytest.mark.parametrize("command", ["validate", "h0", "solve"])
def test_zero_denominator_is_a_parse_error(tmp_path, command):
    text = CANONICAL_HYPERPLANE.replace("z1 * d/z1", "1/0 * z1 * d/z1")
    path = tmp_path / "zero.pdef"
    path.write_text(text)
    code, out = run(command, str(path))
    assert code == 1
    assert out == "parse error: line 3, column 16: zero denominator in '1/0'\n"


def test_human_readable_solve_output():
    code, text = run("solve", corpus_path("p3_hyperplane.pdef"))
    assert code == 0
    assert "family:" in text
    assert "z3: t" in text


SOURCES = Path(poissondef.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml declares for a script."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the one line under [project.scripts]
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        match = re.search(rf'^{name}\s*=\s*"([^"]+)"', section, re.MULTILINE)
        return match.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


def test_console_script_matches_in_process():
    # The declared entry point and ``python -m`` run under this interpreter,
    # importing the same sources as this process, so no install is needed
    # and an installed script from another checkout is never picked up.
    module, attr = declared_console_script("poissondef").split(":")
    launchers = [
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())"],
        [sys.executable, "-m", "poissondef"],
    ]
    pythonpath = os.pathsep.join(
        p for p in (str(SOURCES), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": pythonpath}
    args = ["h0", corpus_path("p3_hyperplane.pdef"), "--json"]
    code, text = run(*args)
    assert code == 0
    for launcher in launchers:
        completed = subprocess.run(launcher + args, capture_output=True,
                                   env=env, cwd=SOURCES)
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == b""
        assert completed.stdout == text.encode()


def _run_script(script):
    """The stdout lines of `script` run in a new interpreter on the
    package's sources."""
    pythonpath = os.pathsep.join(
        p for p in (str(SOURCES), os.environ.get("PYTHONPATH")) if p)
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, cwd=SOURCES)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.decode().splitlines()


def test_only_a_json_report_imports_json():
    argv = ["validate", corpus_path("p2_def.pdef")]
    script = ("import sys\n"
              "from poissondef.cli import run_command\n"
              "print('json' in sys.modules)\n"
              f"run_command({argv!r})\n"
              "print('json' in sys.modules)\n"
              f"run_command({argv + ['--json']!r})\n"
              "print('json' in sys.modules)\n")
    assert _run_script(script) == ["False", "False", "True"]


# `dataclasses` and the modules it pulls in cost about 14 ms of every
# launch; no command needs them
START_COSTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy")


def test_the_import_and_its_commands_leave_dataclasses_out():
    path = corpus_path("p3_hyperplane.pdef")
    script = ("import sys\n"
              "from poissondef.cli import run_command\n"
              f"costs = {START_COSTS!r}\n"
              "print([m for m in costs if m in sys.modules])\n"
              f"run_command(['validate', {path!r}])\n"
              f"run_command(['h0', {path!r}, '--complex', 'extended'])\n"
              "print([m for m in costs if m in sys.modules])\n")
    assert _run_script(script) == ["[]", "[]"]


def test_the_package_needs_only_the_standard_library():
    names = sorted(f"poissondef.{p.stem}" for p in
                   (SOURCES / "poissondef").glob("*.py")
                   if p.stem not in ("__init__", "__main__"))
    script = ("import importlib, sys\n"
              "before = set(sys.modules)\n"
              f"for name in ['poissondef'] + {names!r}:\n"
              "    importlib.import_module(name)\n"
              "for name in sorted(set(sys.modules) - before):\n"
              "    print(name)\n")
    loaded = _run_script(script)
    assert "poissondef.cli" in loaded
    outside = [n for n in loaded if n.split(".")[0] != "poissondef"]
    assert outside
    assert [n for n in outside if n.split(".")[0]
            not in sys.stdlib_module_names] == []


HASH_SEED_COMMANDS = [
    ["h0", "p3_hyperplane.pdef", "--complex", "extended"],
    ["h0", "p2_extended.pdef", "--complex", "extended", "--json"],
    ["solve", "p2_extended.pdef", "--seed", "0,1"],
    ["artin", "p2_extended_t.pdef", "--order", "1", "--json"],
    ["match", "p3_hyperplane.pdef", "p3_hyperplane_s2.pdef"],
]


def test_reports_do_not_depend_on_the_hash_seed():
    # String hashing, and so the iteration order of sets of chart names,
    # changes with PYTHONHASHSEED; no report may.
    script = ("import sys\n"
              "from poissondef.cli import run_command\n"
              "for argv in COMMANDS:\n"
              "    code, text = run_command(argv)\n"
              "    sys.stdout.write(f'{argv} {code}\\n{text}')\n")
    commands = [[corpus_path(a) if a.endswith(".pdef") else a for a in argv]
                for argv in HASH_SEED_COMMANDS]
    pythonpath = os.pathsep.join(
        p for p in (str(SOURCES), os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath}
        completed = subprocess.run(
            [sys.executable, "-c", f"COMMANDS = {commands!r}\n" + script],
            capture_output=True, env=env, cwd=SOURCES)
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    expected = "".join(f"{argv} {code}\n{text}" for argv, (code, text) in
                       zip(commands, map(run_command, commands)))
    assert outputs[0] == outputs[1] == expected.encode()


# The renderer of a rational series that `match` used before it moved into
# `dsl` as `format_param_series`, kept verbatim as an oracle.

def old_mono_name(params, exps) -> str:
    parts = []
    for p, e in zip(params, exps):
        if e == 1:
            parts.append(p)
        elif e:
            parts.append(f"{p}^{e}")
    return "*".join(parts) or "1"


def old_param_series(ser) -> str:
    """Render a series whose coefficients are plain rationals."""
    parts = []
    for pe in sorted(ser.terms):
        c = ser.terms[pe]
        if not c:
            continue
        mono = old_mono_name(ser.params, pe)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    out = ""
    for piece in parts:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4).filter(
        lambda c: abs(c) <= 3)), max_size=5))
def test_param_series_renders_as_before(terms):
    ser = TruncatedSeries(("s", "t"), 6, terms)
    assert format_param_series(ser) == old_param_series(ser)
    for pe in terms:
        assert format_param_monomial(ser.params, pe) == old_mono_name(
            ser.params, pe)


# The four term renderers as they were before they shared one body, kept
# verbatim as an oracle.

def old_format_poly(lp: LaurentPoly) -> str:
    """Human form of a Laurent polynomial, matching the file grammar."""
    return _join_terms(_fmt_monomial(lp.vars, e, c)
                       for e, c in sorted(lp.terms.items()))


def old_format_series(ser: TruncatedSeries, cvars) -> str:
    """Human form of a truncated scalar series over the given chart."""
    rendered = []
    allvars = tuple(cvars) + ser.params
    for pe in sorted(ser.terms):
        poly = ser.terms[pe]
        for ce in sorted(poly.terms):
            rendered.append(_fmt_monomial(allvars, tuple(ce) + tuple(pe),
                                          poly.terms[ce]))
    return _join_terms(rendered)


def old_format_pv_series(ser: TruncatedSeries, cvars, params) -> str:
    """Human form of a truncated polyvector series over the given chart."""
    rendered = []
    allvars = tuple(cvars) + tuple(params)
    entries = []
    for pe in sorted(ser.terms):
        pv = ser.terms[pe]
        for idx in sorted(pv.terms):
            poly = pv.terms[idx]
            for ce in sorted(poly.terms):
                entries.append((idx, tuple(ce), tuple(pe), poly.terms[ce]))
    entries.sort(key=lambda t: (t[0], t[2], t[1]))
    for idx, ce, pe, c in entries:
        frames = [cvars[j] for j in idx]
        rendered.append(_fmt_monomial(allvars, ce + pe, c, frames=frames))
    return _join_terms(rendered)


def old_format_polyvector(pv: Polyvector) -> str:
    """Human form of a polyvector (scalars fall back to plain polynomials)."""
    rendered = []
    for idx in sorted(pv.terms):
        poly = pv.terms[idx]
        frames = [pv.vars[j] for j in idx]
        for ce in sorted(poly.terms):
            rendered.append(_fmt_monomial(pv.vars, ce, poly.terms[ce],
                                          frames=frames))
    return _join_terms(rendered)


RENDER_VARS = ("x", "y", "z")
RENDER_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
RENDER_POLYS = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * len(RENDER_VARS)), RENDER_COEFFS,
    max_size=4).map(lambda terms: LaurentPoly(RENDER_VARS, terms))


@st.composite
def render_polyvectors(draw, degree=None):
    if degree is None:
        degree = draw(st.integers(0, len(RENDER_VARS)))
    frames = list(combinations(range(len(RENDER_VARS)), degree))
    return Polyvector(RENDER_VARS, degree, draw(st.dictionaries(
        st.sampled_from(frames), RENDER_POLYS, max_size=3)))


@st.composite
def render_series(draw, coefficients):
    params = draw(st.sampled_from((("t",), ("s", "t"))))
    return TruncatedSeries(params, 4, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(params)), coefficients,
        max_size=3)))


RENDER_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


@RENDER_SETTINGS
@given(RENDER_POLYS, render_polyvectors())
def test_poly_and_polyvector_render_as_before(lp, pv):
    assert format_poly(lp) == old_format_poly(lp)
    assert format_polyvector(pv) == old_format_polyvector(pv)


@RENDER_SETTINGS
@given(render_series(RENDER_POLYS),
       st.integers(0, 3).flatmap(
           lambda d: render_series(render_polyvectors(d))))
def test_series_render_as_before(ser, pv_ser):
    assert format_series(ser, RENDER_VARS) == old_format_series(
        ser, RENDER_VARS)
    assert format_pv_series(pv_ser, RENDER_VARS, pv_ser.params) == (
        old_format_pv_series(pv_ser, RENDER_VARS, pv_ser.params))
