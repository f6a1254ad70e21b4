"""Witness texts pinned against a recorded snapshot.

The solver and small-ring reports name the equation row that blocks a step
(`solve --degree 0|1`, `artin --bound 0|1`); the benchmark's golden hashes
cover only the default commands. This test reruns those commands on every
shipped file, and the graded engine (`h0|hyper --weights`) on the one
single-chart file, with and without --json, plus the class of each functor
one order up (`artin --order 1 --functor hilb|exthilb|def --bound 1`, human
text) on the files that carry a family, the matching of every pair of
shipped files that gets past its inputs (`match A B --order 2`, human text),
and the section search from bound 0 on every shipped file and complex kind
(`h0 --bound 0`, whose stability loop advances past its first bound, e.g. to
6 on `f2_instability --complex extended`), with and without --json, and
compares exit code and full text with `data/witness_snapshot.json`.

Record the snapshot again (only when a report is meant to change) with
    PYTHONPATH=src python tests/test_witness_snapshot.py
"""

import json
import sys
from pathlib import Path

import pytest

import poissondef
from poissondef.cli import run_command

EXAMPLES = Path(poissondef.__file__).parent / "examples"
SNAPSHOT = Path(__file__).parent / "data" / "witness_snapshot.json"
FAMILY_FILES = ("c3_line.pdef", "f0_instability.pdef", "f2_instability.pdef",
                "p2_def.pdef", "p2_extended_t.pdef", "p3_hyperplane.pdef",
                "p3_line_bad.pdef")
# (model, observed) pairs whose `match` ends with a substitution or with a
# MatchFailure; the instability files, which fail `verify`, are left out.
MATCH_PAIRS = (
    ("c3_line", "c3_line"), ("p2_extended", "p2_extended"),
    ("p2_extended", "p2_extended_t"), ("p2_extended_t", "p2_extended"),
    ("p2_extended_t", "p2_extended_t"),
    *((a, b) for a in ("p3_hyperplane", "p3_hyperplane_s", "p3_hyperplane_s2")
      for b in ("p3_hyperplane", "p3_hyperplane_s", "p3_hyperplane_s2")),
    ("p3_line", "p3_line"), ("p3_line", "p3_line_bad"), ("p3_line", "p3_line_t"),
    ("p3_line_bad", "p3_line"), ("p3_line_bad", "p3_line_bad"),
    ("p3_line_bad", "p3_line_t"),
)


def _commands():
    for name in sorted(p.name for p in EXAMPLES.glob("*.pdef")):
        for sub, flag in (("solve", "--degree"), ("artin", "--bound")):
            for value in ("0", "1"):
                for fmt in ((), ("--json",)):
                    yield [sub, name, flag, value, *fmt]
    for sub in ("h0", "hyper"):
        for kind in ("normal", "extended", "bivector"):
            for fmt in ((), ("--json",)):
                yield [sub, "c3_line.pdef", "--weights", "0..5", "--complex",
                       kind, *fmt]
    for name in FAMILY_FILES:
        for functor in ("hilb", "exthilb", "def"):
            yield ["artin", name, "--order", "1", "--functor", functor,
                   "--bound", "1"]
    for model, observed in MATCH_PAIRS:
        yield ["match", f"{model}.pdef", f"{observed}.pdef", "--order", "2"]
    for name in sorted(p.name for p in EXAMPLES.glob("*.pdef")):
        for kind in ("normal", "extended", "bivector"):
            for fmt in ((), ("--json",)):
                yield ["h0", name, "--complex", kind, "--bound", "0", *fmt]


def _run(argv):
    resolved = [str(EXAMPLES / a) if a.endswith(".pdef") else a for a in argv]
    return run_command(resolved)


@pytest.fixture(scope="module")
def snapshot():
    return {tuple(e["argv"]): (e["code"], e["text"])
            for e in json.loads(SNAPSHOT.read_text())}


def test_snapshot_covers_every_command(snapshot):
    assert sorted(snapshot) == sorted(tuple(a) for a in _commands())


@pytest.mark.parametrize("argv", list(_commands()), ids=" ".join)
def test_witness_text_matches_snapshot(snapshot, argv):
    assert _run(argv) == snapshot[tuple(argv)]


if __name__ == "__main__":
    runs = []
    for argv in _commands():
        code, text = _run(argv)
        runs.append({"argv": argv, "code": code, "text": text})
    SNAPSHOT.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"recorded {len(runs)} runs in {SNAPSHOT}", file=sys.stderr)
