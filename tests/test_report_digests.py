"""Every report of the behaviour contract (`report_contract.py`) has the
exit code, byte count and SHA-256 recorded in `data/report_digests.json`.

A command that raises fails the test. On a mismatch the test names every
argv whose report moved; `PYTHONPATH=src python tests/report_contract.py`
records the file again when a change means to move them.

The same pass checks every kernel that `nullspace` returns on the way
(`kernel_check.certified_nullspace`): A·v = 0 and the identity block on the
free columns.

It is also the census of reached code: it runs under `sys.setprofile`, and
every function defined in `src/poissondef`, methods and nested functions
included (lambdas and comprehensions are part of the function around
them), is either called by some argv of the contract or listed in
`UNREACHED` with the reason it stays. A function that no command reaches
any more fails the census until it is reached, moved or listed; a listed
function that a command reaches, or that is gone, fails it until its line
is dropped.
"""

import inspect
import sys
from pathlib import Path

import pytest

import poissondef
from kernel_check import certified_nullspace
from report_contract import commands, recorded, run, scratch_directory

PACKAGE = Path(poissondef.__file__).resolve().parent

_GATE = "imported by the acceptance gate, tests/test_acceptance.py"
_ITEM_11 = ("the semi-regularity map of ROADMAP item 11, which no command "
            "exposes yet")
_TESTS = "reached only by tests"
_TERM_CLASS = ("reached only by tests: a term class's printing, ordering "
               "or hashing")

# function -> why no argv of the contract calls it (ROADMAP item 17)
UNREACHED = {
    "artin._default_perturbation": _GATE + ", through artin_obstruction's "
    "perturb= path",
    "symbolic.MajorantSeries.__init__": _GATE + ": Kodaira's comparison "
    "series",
    "symbolic.MajorantSeries.coefficient": _GATE,
    "symbolic.MajorantSeries.as_series": _GATE,
    "symbolic.dominates": _GATE,
    "complexes.semiregularity_image_rank": _ITEM_11,
    "complexes.semiregularity_image_rank.<locals>.restrict_col": _ITEM_11,
    "geometry.codim1_line_bundle": _ITEM_11,
    "geometry.PoissonLineBundle.__init__": _ITEM_11,
    "cli.main": "the console script's entry, run by the subprocess test "
    "of tests/test_dsl_cli.py; the contract calls run_command",
    "cli._warn_list": "reached only by warnings that no shipped file "
    "raises",
    "dsl.render": _TESTS + ": the text round trip of item 7(b)",
    "geometry.product": _TESTS + ": the product atlas of the transport "
    "oracles",
    "polyvector.Polyvector.with_vars": _TESTS,
    "polyvector.Polyvector.monomial": _TESTS,
    "polyvector.Polyvector.coefficient": _TESTS,
    "symbolic.LaurentPoly.monomial": _TESTS,
    "symbolic.LaurentPoly.__rsub__": _TESTS,
    "symbolic.TruncatedSeries.scale": _TESTS,
    "symbolic.TruncatedSeries.__eq__": _TESTS,
    "deformation.Obstructed.__bool__": _TESTS,
    "geometry.Chart.__eq__": _TERM_CLASS,
    "geometry.Chart.__hash__": _TERM_CLASS,
    "polyvector.Polyvector.__hash__": _TERM_CLASS,
    "polyvector.Polyvector.__str__": _TERM_CLASS,
    "polyvector.Polyvector.sorted_terms": _TERM_CLASS,
    "symbolic.LaurentPoly.__hash__": _TERM_CLASS,
    "symbolic.TruncatedSeries.__str__": _TERM_CLASS,
    "symbolic.TruncatedSeries.sorted_terms": _TERM_CLASS,
}


@pytest.fixture(scope="module")
def contract():
    """The contract run once: the argvs whose reports moved, the kernels
    `nullspace` returned, and every code object called on the way."""
    want, called = recorded(), set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with scratch_directory(), certified_nullspace() as checked:
        sys.setprofile(record)
        try:
            moved = [" ".join(argv) for argv in commands()
                     if run(argv) != want[tuple(argv)]]
        finally:
            sys.setprofile(None)
    return moved, checked, called


def defined_functions() -> dict:
    """Every function the package defines, by (file, qualified name, first
    line) of its code object: its name "module.qualified name"."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path),
                         "exec")]
        while stack:
            for code in stack.pop().co_consts:
                if inspect.iscode(code):
                    stack.append(code)
                    # a class body makes no new locals; lambdas and
                    # comprehensions are named <...>
                    if (code.co_flags & inspect.CO_NEWLOCALS
                            and not code.co_name.startswith("<")):
                        out[(str(path), code.co_qualname,
                             code.co_firstlineno)] = \
                            f"{path.stem}.{code.co_qualname}"
    return out


def test_the_recorded_matrix_is_the_contract():
    assert sorted(recorded()) == sorted(tuple(argv) for argv in commands())


def test_every_report_matches_its_digest(contract):
    moved, checked, _ = contract
    assert not moved, f"{len(moved)} reports moved: " + "; ".join(moved)
    # 820 calls when this check was added
    assert len(checked) > 500
    faulty = [c for c in checked if c[2]]
    assert not faulty, f"{len(faulty)} of {len(checked)} kernels: {faulty[:3]}"


def test_every_function_is_reached_or_listed(contract):
    files = {}
    called = set()
    for code in contract[2]:
        path = files.get(code.co_filename)
        if path is None:
            path = files[code.co_filename] = str(
                Path(code.co_filename).resolve())
        called.add((path, code.co_qualname, code.co_firstlineno))
    defined = defined_functions()
    # 363 definitions when the census was added
    assert len(defined) > 300
    unreached = {name for key, name in defined.items() if key not in called}
    assert sorted(unreached - set(UNREACHED)) == [], \
        "no command reaches these: reach, move or list them"
    assert sorted(set(UNREACHED) - unreached) == [], \
        "reached or gone: drop them from UNREACHED"
