"""Every kernel that `nullspace` returns on a benchmark command is checked.

The test runs every command of the `sections`, `solver` and `corpus`
workloads of `perfbench/workloads.py` in-process, inside
`kernel_check.certified_nullspace`, which checks each returned basis by a
routine that shares no code with `linalg._echelon` (`kernel_faults`): A·v = 0
for every basis vector, and the identity block on the free columns.
`test_report_digests.py` checks the behaviour contract's kernels the same
way.
"""

import os
import sys
from fractions import Fraction

from poissondef import cli, linalg

from kernel_check import certified_nullspace, kernel_faults

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import commands  # noqa: E402


def test_workload_kernels_are_certified(monkeypatch):
    monkeypatch.chdir(ROOT)
    with certified_nullspace() as checked:
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
