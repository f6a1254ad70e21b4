"""Mutation fuzzing of the command-line front end.

Corpus files are mutated (lines deleted, duplicated or swapped, tokens
replaced, text truncated or spliced) and every subcommand is run on the
result with small bounds, `match` with the unmutated file as the model.
Whatever the input, a command ends with exit code 0, 1 or 2, never a Python
exception; a failure (exit 1) is a single line that starts with one of the
front end's error prefixes; and the same input gives the same exit code and
text twice.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import poissondef
from poissondef.cli import run_command

EXAMPLES = Path(poissondef.__file__).parent / "examples"
CORPUS = sorted(p.name for p in EXAMPLES.glob("*.pdef"))
TEXTS = {name: (EXAMPLES / name).read_text(encoding="utf-8")
         for name in CORPUS}

ERROR_PREFIXES = ("usage error: ", "parse error: ", "error: ")

TOKEN = re.compile(r"[A-Za-z_][\w/]*|\d+|\S")
# every token of the corpus, plus values the corpus never uses
TOKENS = sorted({t for text in TEXTS.values() for t in TOKEN.findall(text)}
                | {"0", "-1", "1/0", "99", "U9", "x9", "d/q", "[]", ";;", "^"})


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(CORPUS))
    lines = TEXTS[name].splitlines()
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token",
                                 "truncate", "splice"]))
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        spans = [m.span() for m in TOKEN.finditer(lines[i])]
        if spans:
            a, b = spans[draw(st.integers(0, len(spans) - 1))]
            token = draw(st.sampled_from(TOKENS))
            lines[i] = lines[i][:a] + token + lines[i][b:]
    text = "\n".join(lines) + "\n"
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif kind == "splice":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text("0123456789+-*/^;:,=()[] tzU",
                                         max_size=4)) + text[at:]
    return name, text


def commands(path, model):
    return [
        ["validate", path], ["tensors", path],
        ["h0", path, "--bound", "1"],
        ["h0", path, "--complex", "extended", "--bound", "1"],
        ["hyper", path, "--bound", "1"],
        ["solve", path, "--order", "2", "--bound", "1"],
        ["verify", path, "--order", "2"],
        ["artin", path, "--bound", "1"],
        ["match", model, path, "--order", "2"],
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutated())
def test_mutated_corpus_never_escapes(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutated.pdef")
        Path(path).write_text(text, encoding="utf-8")
        for argv in commands(path, str(EXAMPLES / name)):
            code, out = run_command(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert out.endswith("\n") and "\n" not in out[:-1], (argv, out)
                assert out.startswith(ERROR_PREFIXES), (argv, out)
            assert run_command(argv) == (code, out), argv
