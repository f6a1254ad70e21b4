"""Every benchmark workload command against the benchmark's golden outputs.

`perfbench/golden.json` records the exit code and report digest of each
command of the `sections`, `solver` and `corpus` workloads. This test runs
one untimed, untraced pass of each workload from the root of the checkout
(the commands name their files relative to it) and requires every command
to match.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
from workloads import commands  # noqa: E402


@pytest.mark.parametrize("workload", ["sections", "solver", "corpus"])
def test_workload_matches_golden(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = harness.run_pass(commands(workload), harness.load_golden())
    failed = [key for key, status in zip(result["keys"], result["statuses"])
              if status != harness.PASS]
    assert not failed, failed
