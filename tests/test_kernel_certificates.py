"""Every kernel that `nullspace` returns on a benchmark command is checked.

The test runs every command of the `sections`, `solver` and `corpus`
workloads of `perfbench/workloads.py` in-process, with `nullspace` wrapped
in every loaded `poissondef.*` namespace that binds it, and checks each
returned basis by a routine that shares no code with `linalg._echelon`:

- A·v = 0 for every basis vector v, by one sparse product over the columns;
- the identity block on the free columns: the free column of v is its last
  non-zero entry, where v is 1, and every other vector of the basis is 0
  there. So the basis is independent, and dim ker A >= len(basis) holds by
  the check itself.
"""

import os
import sys
from fractions import Fraction

from poissondef import cli, linalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import commands  # noqa: E402


def kernel_faults(columns, basis) -> list:
    """The ways in which `basis` fails to be a reduced basis of vectors in
    the right kernel of the sparse columns {row key: value}."""
    faults = []
    free = []
    for i, v in enumerate(basis):
        if len(v) != len(columns):
            faults.append((i, "length"))
            continue
        product = {}
        for col, x in zip(columns, v):
            if x:
                for key, a in col.items():
                    product[key] = product.get(key, 0) + Fraction(a) * x
        if any(product.values()):
            faults.append((i, "A v != 0"))
        nonzero = [j for j, x in enumerate(v) if x]
        free.append(nonzero[-1] if nonzero else None)
        if not nonzero or v[nonzero[-1]] != 1:
            faults.append((i, "free entry != 1"))
    if free != sorted(set(free)) or None in free:
        faults.append((None, "free columns not increasing"))
    for i, v in enumerate(basis):
        for j, fc in enumerate(free):
            if j != i and fc is not None and fc < len(v) and v[fc]:
                faults.append((i, f"non-zero at the free column of {j}"))
    return faults


def test_workload_kernels_are_certified(monkeypatch):
    monkeypatch.chdir(ROOT)
    original = linalg.nullspace
    checked = []

    def certified(columns):
        basis = original(columns)
        checked.append((len(columns), len(basis),
                        kernel_faults(columns, basis)))
        return basis

    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and n.startswith("poissondef.")]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, attr, certified)

    for argv in (commands("sections") + commands("solver")
                 + commands("corpus")):
        cli.run_command(list(argv))
    assert [c for c in checked if c[2]] == []
    assert sum(n for _, n, _ in checked) > 100


def test_the_check_rejects_one_perturbed_entry():
    # a small kernel with pivot and free columns, a zero column included
    columns = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {}, {"a": Fraction(1, 2)},
               {"b": 3, "c": -1}, {"a": 1, "b": 5, "c": -1}]
    basis = linalg.nullspace(columns)
    assert len(basis) == 3
    assert kernel_faults(columns, basis) == []
    for i, v in enumerate(basis):
        for j in range(len(v)):
            bad = [list(u) for u in basis]
            bad[i][j] += 1
            assert kernel_faults(columns, bad), (i, j)
