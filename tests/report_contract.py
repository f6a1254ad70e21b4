"""The behaviour contract: a fixed command matrix whose reports must not
change a byte unless a change means to move them.

The matrix is
- every shipped example under every variant of `VARIANTS`;
- the `linebundle` variants, which end with the same usage line on every
  file, on one file;
- `solve --seed` on the two extended files the `solver` benchmark workload
  seeds, and a seed that does not parse;
- the (model, observed) pairs of the witness snapshot under `match`;
- the malformed inputs of `test_dsl_cli` under `MALFORMED_COMMANDS`;
- `PARSER_COMMANDS`, command lines that `argparse` reads (usage errors,
  abbreviations, `--flag=value`, an option before the file, a value that
  starts with `-`) and one with a repeated option,

each with and without --json. `data/report_digests.json` keeps, per argv,
the exit code, the byte count and the SHA-256 of the report text; the
tier-1 test `test_report_digests.py` compares every entry.

Commands run in a scratch directory that holds the malformed inputs, so
an argv names them, and a file that does not exist, by a bare file name;
a shipped example is named by its file name as well and run from the
package's examples directory. No report depends on where the checkout is.

Record the digests again (only when a report is meant to change) with
    PYTHONPATH=src python tests/report_contract.py
which rewrites the file and prints every argv whose digest moved, was
added or was dropped.
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import poissondef
from poissondef.cli import run_command

from test_witness_snapshot import MATCH_PAIRS

EXAMPLES = Path(poissondef.__file__).parent / "examples"
EXAMPLE_NAMES = sorted(p.name for p in EXAMPLES.glob("*.pdef"))
DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
FORMATS = ((), ("--json",))

VARIANTS = (
    ("validate",),
    ("tensors",),
    ("h0",),
    ("h0", "--complex", "extended"),
    ("h0", "--complex", "bivector"),
    ("h0", "--weights", "0..3"),
    ("hyper",),
    ("hyper", "--bound", "2"),
    ("hyper", "--complex", "extended"),
    ("hyper", "--complex", "bivector", "--bound", "2"),
    ("hyper", "--weights", "0..3"),
    ("solve",),
    ("solve", "--degree", "1"),
    ("solve", "--order", "2"),
    ("solve", "--mode", "fixed"),
    ("solve", "--mode", "extended"),
    ("solve", "--mode", "prescribed"),
    ("verify",),
    ("verify", "--order", "2"),
    ("artin",),
    ("artin", "--order", "1"),
    ("artin", "--bound", "1"),
    ("artin", "--functor", "hilb"),
    ("artin", "--functor", "exthilb"),
)
ONE_FILE = (
    ("h0", "c3_line.pdef", "--complex", "linebundle"),
    ("hyper", "c3_line.pdef", "--complex", "linebundle"),
    ("h0", "c3_line.pdef", "--complex", "bogus"),
    ("solve", "c3_line.pdef", "--mode", "bogus"),
    ("artin", "c3_line.pdef", "--functor", "bogus"),
)
SEED_COMMANDS = (
    ("solve", "p2_extended.pdef", "--seed", "0,1"),
    ("solve", "p2_extended_t.pdef", "--seed", "0"),
    ("solve", "p2_extended.pdef", "--seed", "0,x"),
)

# usage errors, an abbreviation, --flag=value, an option before the file,
# --json before the subcommand, a missing value, a value that starts with
# "-", and a repeated option (the last one wins)
PARSER_COMMANDS = (
    (),
    ("nonsense",),
    ("h0", "p3_hyperplane.pdef", "--bo", "3"),
    ("solve", "p3_hyperplane.pdef", "--order=2"),
    ("verify", "--order", "3", "p3_hyperplane.pdef"),
    ("h0",),
    ("validate", "p3_hyperplane.pdef", "extra"),
    ("match", "p3_hyperplane.pdef"),
    ("--json", "h0", "p3_hyperplane.pdef"),
    ("h0", "p3_hyperplane.pdef", "--weights"),
    ("solve", "p3_hyperplane.pdef", "--seed", "-1"),
    ("solve", "p3_hyperplane.pdef", "--order", "1", "--order", "2"),
)

# the malformed problem files of test_dsl_cli, then one input per
# statement-level parse error, by file name
MALFORMED = {
    "power.pdef": "builtin P2;\npoisson on U0: (z1 + 1)^-2 * d/z1 ^ d/z2;\n",
    "broken.pdef": "manifold x\nbuiltin P2;\n",
    "unknown_variable.pdef":
        "builtin P2;\npoisson on U0: zz * d/z1 ^ d/z2;\n",
    "family_order.pdef":
        "builtin P2;\nsubmanifold normal U0: [z1];\n"
        "submanifold normal U1: absent;\nsubmanifold normal U2: [z2];\n"
        "params t order 2 degree 2;\nfamily U0: z1 = t^3;\n",
    "family_variable.pdef":
        "builtin P2;\nsubmanifold normal U0: [z1];\n"
        "submanifold normal U1: absent;\nsubmanifold normal U2: [z2];\n"
        "params t order 2 degree 2;\nfamily U0: z2 = t;\n",
    "lambda_parameter_frame.pdef":
        "builtin P2;\nparams t order 2 degree 1;\nmode prescribed;\n"
        "lambda U0: z1 * d/z1 ^ d/t;\n",
    "poisson_parameter.pdef":
        "builtin P2;\nparams t order 2 degree 1;\n"
        "poisson on U0: t * z1 * d/z1 ^ d/z2;\n",
    "one_way.pdef":
        "chart A vars x y;\nchart B vars u v;\nchart C vars p q;\n"
        "transition A -> B: x = u, y = v;\n"
        "transition B -> A: u = x, v = y;\n"
        "transition B -> C: u = p, v = q;\n"
        "transition C -> B: p = u, q = v;\n"
        "transition A -> C: x = p, y = q;\n"
        "poisson on A: d/x ^ d/y;\n",
    "missing_variable.pdef":
        "chart A vars x y;\nchart B vars u v;\n"
        "transition A -> B: x = u;\ntransition B -> A: u = x, v = y;\n",
    "missing_variable_poisson.pdef":
        "chart A vars x y;\nchart B vars u v;\n"
        "transition A -> B: x = u;\ntransition B -> A: u = x, v = y;\n"
        "poisson on A: d/x ^ d/y;\n",
    "late.pdef":
        "chart A vars x y;\nchart B vars u v;\npoisson on A: d/x ^ d/y;\n"
        "transition A -> B: x = u, y = v;\n"
        "transition B -> A: u = x, v = y;\n",
    "late_chart.pdef":
        "builtin P1;\nsubmanifold normal U0: [z1];\nchart C vars p q;",
    "late_builtin.pdef":
        "builtin P1;\nsubmanifold normal U0: [z1];\nbuiltin P2;",
    "builtin_pn.pdef": "builtin Pn(x);\n",
    "builtin_pn_bare.pdef": "builtin Pn;\npoisson on U0: d/z1 ^ d/z1;\n",
    "builtin_fm.pdef": "builtin Fm(m);\nsubmanifold normal U1: [xi];\n",
    "transition_variable.pdef":
        "chart A vars x y;\nchart B vars u v;\n"
        "transition A -> B: x = u, v = v;\n",
    "submanifold_variable.pdef":
        "builtin Fm(1);\nsubmanifold normal U1: [zp];\n",
    "submanifold_comma.pdef":
        "builtin P2;\nsubmanifold normal U0: [z1 z2];\n",
    "family_equals.pdef":
        "builtin P2;\nsubmanifold normal U0: [z1];\n"
        "params t order 2 degree 2;\nfamily U0: z1 t;\n",
    "builtin_fm_negative.pdef": "builtin Fm(-1);\n",
    "mode_bogus.pdef": "builtin P2;\nmode bogus;\n",
    "artin_bogus.pdef": "builtin P2;\nartin bogus;\n",
    "family_repeated.pdef":
        "builtin P2;\nsubmanifold normal U0: [z1];\n"
        "submanifold normal U1: absent;\nsubmanifold normal U2: [z2];\n"
        "params t order 2 degree 2;\nfamily U0: z1 = t;\n"
        "family U0: z1 = t^2;\n",
    "transition_repeated.pdef":
        "chart A vars x y;\nchart B vars u v;\n"
        "transition A -> B: x = u, x = v;\n",
}
# read by the commands below, but never written
ABSENT = "absent.pdef"
MALFORMED_COMMANDS = ("validate", "tensors", "h0", "solve")


def commands():
    """Every argv of the contract, in a fixed order."""
    for name in EXAMPLE_NAMES:
        for variant in VARIANTS:
            for fmt in FORMATS:
                yield [variant[0], name, *variant[1:], *fmt]
    for argv in ONE_FILE + SEED_COMMANDS + PARSER_COMMANDS:
        for fmt in FORMATS:
            yield [*argv, *fmt]
    for model, observed in MATCH_PAIRS:
        for fmt in FORMATS:
            yield ["match", f"{model}.pdef", f"{observed}.pdef", *fmt]
    for name in (*MALFORMED, ABSENT):
        for command in MALFORMED_COMMANDS:
            for fmt in FORMATS:
                yield [command, name, *fmt]


def digest(code: int, text: str) -> dict:
    data = text.encode("utf-8")
    return {"code": code, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


@contextmanager
def scratch_directory():
    """A working directory holding the malformed inputs, left on exit."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in MALFORMED.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def run(argv) -> dict:
    """The digest of one argv's report; call inside `scratch_directory`."""
    resolved = [str(EXAMPLES / a) if a in EXAMPLE_NAMES else a for a in argv]
    return digest(*run_command(resolved))


def recorded() -> dict:
    return {tuple(e["argv"]): {k: e[k] for k in ("code", "bytes", "sha256")}
            for e in json.loads(DIGESTS.read_text())}


if __name__ == "__main__":
    old = recorded() if DIGESTS.exists() else {}
    with scratch_directory():
        new = {tuple(argv): run(argv) for argv in commands()}
    DIGESTS.write_text("[\n" + ",\n".join(
        json.dumps({"argv": list(argv), **d}) for argv, d in new.items())
        + "\n]\n")
    for argv in sorted(set(old) | set(new)):
        if old.get(argv) != new.get(argv):
            state = ("added" if argv not in old else
                     "dropped" if argv not in new else "moved")
            print(f"{state}: {' '.join(argv)}")
    print(f"recorded {len(new)} runs in {DIGESTS}", file=sys.stderr)
