"""No float or bool reaches the exact core on any benchmark command.

Coefficients are stored as ints when integral and as Fractions otherwise.
This test runs every command of the `solver` and `corpus` workloads of
`perfbench/workloads.py` in-process, with `rref`, `rank`, `nullspace`,
`solve_min` and `substitute` wrapped in every loaded `poissondef.*`
namespace that binds them, and `ComplexDescriptor.differential` wrapped on
its class, and walks every argument and result of those calls: each scalar
must be an int or a Fraction. `rank` does not reach `rref`, so it is wrapped
on its own. The differential's index rules multiply by integer exponents,
so its results are walked too.
"""

import os
import sys
from fractions import Fraction

from poissondef import cli, linalg, symbolic
from poissondef.complexes import ComplexDescriptor
from poissondef.polyvector import Polyvector
from poissondef.symbolic import LaurentPoly, TruncatedSeries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import commands  # noqa: E402


def inexact(obj):
    """The scalars in obj that are neither an int nor a Fraction."""
    if isinstance(obj, LaurentPoly):
        return [c for c in obj.terms.values() if type(c) not in (int, Fraction)]
    if isinstance(obj, (TruncatedSeries, Polyvector)):
        return [c for v in obj.terms.values() for c in inexact(v)]
    if isinstance(obj, dict):
        return [c for v in obj.values() for c in inexact(v)]
    if isinstance(obj, (list, tuple)):
        return [c for v in obj for c in inexact(v)]
    if isinstance(obj, (int, float, Fraction)):
        return [] if type(obj) in (int, Fraction) else [obj]
    return []


def test_workloads_keep_scalars_exact(monkeypatch):
    monkeypatch.chdir(ROOT)
    wrapped = {"rref": linalg.rref, "rank": linalg.rank,
               "nullspace": linalg.nullspace, "solve_min": linalg.solve_min,
               "substitute": symbolic.substitute,
               "differential": ComplexDescriptor.differential}
    calls = dict.fromkeys(wrapped, 0)
    bad = []

    def checked(name, fn):
        def wrapper(*args):
            calls[name] += 1
            result = fn(*args)
            found = inexact(args) + inexact(result)
            if found:
                bad.append((name, found[:3]))
            return result
        return wrapper

    # importing cli has loaded every poissondef module
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and n.startswith("poissondef.")]
    for name, original in wrapped.items():
        wrapper = checked(name, original)
        if name == "differential":
            monkeypatch.setattr(ComplexDescriptor, name, wrapper)
            continue
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, wrapper)

    for argv in commands("solver") + commands("corpus"):
        cli.run_command(list(argv))
        assert not bad, (argv, bad)
    assert all(calls.values()), calls
