"""Every report of the behaviour contract (`report_contract.py`) has the
exit code, byte count and SHA-256 recorded in `data/report_digests.json`.

A command that raises fails the test. On a mismatch the test names every
argv whose report moved; `PYTHONPATH=src python tests/report_contract.py`
records the file again when a change means to move them.

The same pass checks every kernel that `nullspace` returns on the way
(`kernel_check.certified_nullspace`): A·v = 0 and the identity block on the
free columns.
"""

from kernel_check import certified_nullspace
from report_contract import commands, recorded, run, scratch_directory


def test_the_recorded_matrix_is_the_contract():
    assert sorted(recorded()) == sorted(tuple(argv) for argv in commands())


def test_every_report_matches_its_digest():
    want = recorded()
    with scratch_directory(), certified_nullspace() as checked:
        moved = [" ".join(argv) for argv in commands()
                 if run(argv) != want[tuple(argv)]]
    assert not moved, f"{len(moved)} reports moved: " + "; ".join(moved)
    # 820 calls when this check was added
    assert len(checked) > 500
    faulty = [c for c in checked if c[2]]
    assert not faulty, f"{len(faulty)} of {len(checked)} kernels: {faulty[:3]}"
