"""Every report of the behaviour contract (`report_contract.py`) has the
exit code, byte count and SHA-256 recorded in `data/report_digests.json`.

A command that raises fails the test. On a mismatch the test names every
argv whose report moved; `PYTHONPATH=src python tests/report_contract.py`
records the file again when a change means to move them.
"""

from report_contract import commands, recorded, run, scratch_directory


def test_the_recorded_matrix_is_the_contract():
    assert sorted(recorded()) == sorted(tuple(argv) for argv in commands())


def test_every_report_matches_its_digest():
    want = recorded()
    with scratch_directory():
        moved = [" ".join(argv) for argv in commands()
                 if run(argv) != want[tuple(argv)]]
    assert not moved, f"{len(moved)} reports moved: " + "; ".join(moved)
