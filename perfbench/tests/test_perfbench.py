"""Tests of the benchmark's own machinery: tracing, golden checks, workloads."""

import copy
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import poissondef.cli  # noqa: E402,F401  (loads every poissondef module)

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, command_key, commands, example  # noqa: E402

SMALL = [["validate", example("c3_line")], ["h0", example("p3_line")],
         ["solve", example("p3_hyperplane")]]


@pytest.fixture
def golden(monkeypatch):
    monkeypatch.chdir(ROOT)  # commands name files relative to the checkout
    return harness.load_golden()


def bindings() -> dict:
    """Every attribute of every poissondef module and of the classes they
    define, by (module, attribute[, class attribute])."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "poissondef" and not modname.startswith("poissondef."):
            continue
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    snap[(modname, attr, cattr)] = cvalue
    return snap


def changed(before: dict, after: dict) -> list:
    return sorted(str(k) for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))


def test_traced_run_restores_every_binding(golden):
    before = bindings()
    with tracing.Tracer() as tracer:
        patched = changed(before, bindings())
        result = harness.run_pass(SMALL, golden, tracer)
    assert "('poissondef.complexes', 'rref')" in patched
    assert "('poissondef.linalg', 'rref')" in patched
    assert "('poissondef.geometry', 'ChartedSpace', 'pushforward')" in patched
    assert tracer.spans and result["statuses"] == ["pass"] * len(SMALL)
    assert changed(before, bindings()) == []


def test_bindings_restored_when_the_traced_block_raises(golden):
    before = bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert changed(before, bindings()) == []


def test_untraced_run_patches_nothing(golden):
    before = bindings()
    result = harness.run_pass(SMALL, golden)
    assert changed(before, bindings()) == []
    assert result["statuses"] == ["pass"] * len(SMALL)


def test_corrupted_golden_digest_is_a_failure(golden):
    corrupt = copy.deepcopy(golden)
    key = command_key(SMALL[0])
    corrupt["commands"][key]["sha256"] = "0" * 64
    result = harness.run_pass(SMALL, corrupt)
    assert result["statuses"] == ["failed", "pass", "pass"]


def test_known_traceback_passes_once_it_exits_cleanly(golden):
    key = next(iter(golden["tracebacks"]))
    assert harness.judge(golden, key, None, None, "TypeError: x") == harness.TRACEBACK
    assert harness.judge(golden, key, 1, "error: x\n", None) == harness.PASS
    good = command_key(SMALL[0])
    assert harness.judge(golden, good, None, None, "TypeError: x") == harness.FAILED


def test_rref_spans_nest_under_nullspace_and_global_sections(golden):
    with tracing.Tracer() as tracer:
        harness.run_pass([["h0", example("p3_line")]], golden, tracer)
    spans = tracer.spans

    def ancestors(i):
        names, p = [], spans[i][tracing.PARENT]
        while p >= 0:
            names.append(spans[p][tracing.NAME])
            p = spans[p][tracing.PARENT]
        return names

    rrefs = [i for i, s in enumerate(spans) if s[tracing.NAME] == tracing.RREF]
    assert rrefs
    assert all(ancestors(i)[-1] == "cli.run_command" for i in rrefs)
    assert any(ancestors(i)[0] == "linalg.nullspace"
               and "complexes.global_sections" in ancestors(i) for i in rrefs)
    layers = tracing.summarize(spans)
    assert layers["linalg.rref.calls"] == len(rrefs)
    assert layers["linalg.rref.total_s"] <= layers["cli.run_command.total_s"]


def test_seed_only_permutes_and_golden_covers_every_command(golden):
    for workload in WORKLOADS:
        cmds = commands(workload)
        assert sorted(commands(workload, seed=7)) == sorted(cmds)
        harness.check_covered(golden, cmds)
    assert len(commands("corpus")) == 184
    assert len(golden["tracebacks"]) == 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solver",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampled_pass_scales_every_command(golden):
    from calibrate import Sampler
    with Sampler() as sampler:
        result = harness.run_pass(SMALL, golden, sampler=sampler)
    assert len(sampler.costs) >= 2 and len(result["scales"]) == len(SMALL)
    assert all(k > 0 for k in result["scales"])
    assert all(ms > 0 for ms in result["latencies_ms"])
