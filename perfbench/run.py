"""The poissondef benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sections --seed 1 --seconds 20 --trace 0

Each pass over the workload runs in a fresh interpreter (`worker.py`), so
every pass pays the cold costs a `poissondef` user pays; there is no
warm-up.  Passes repeat until `--seconds` have elapsed (at least one).
One client, one process, no threads: a closed loop.

With `--trace 0` the run reports the end-to-end metrics: the median pass
wall time, the median and 90th percentile over commands of each command's
median latency, set-up time (launch until `poissondef.cli` is imported,
median over every launch) and peak resident memory.  With `--trace 1` it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones, plus the trace overhead.  Times are calibrated against a
fixed block of work (`calibrate.py`) to cancel drift in machine speed.
Every command's output is checked against `golden.json`.

A readable report comes first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`, the metrics
being those `BENCHMARK.json` declares for the mode.  Exit code 0 when every
output matched, 1 when one did not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
PACKAGE = os.path.join(ROOT, "src", "poissondef")

SETUP_PROBES = 5  # extra launches that only import, for the set-up median
PASS_TIMEOUT_S = 170

sys.path.insert(0, HERE)


class BenchError(Exception):
    pass


def launch(*args: str) -> dict:
    """Start a worker, wait for it, and return its JSON result with the
    set-up time measured from just before the launch."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {' '.join(args)} timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}: {tail[0]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def tally(passes) -> dict:
    statuses = [s for p in passes for s in p["statuses"]]
    return {"attempted": len(statuses),
            "failed": statuses.count("failed"),
            "tracebacks": statuses.count("traceback"),
            "mismatched": sorted({k for p in passes
                                  for k, s in zip(p["keys"], p["statuses"])
                                  if s == "failed"})}


def command_ms(passes, scaled: bool) -> list:
    """Each command's latency, median over the passes."""
    per = {}
    for p in passes:
        scales = p["scales"] if scaled else [1.0] * len(p["keys"])
        for key, ms, k in zip(p["keys"], p["latencies_ms"], scales):
            per.setdefault(key, []).append(ms * k)
    return [statistics.median(v) for v in per.values()]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, launches) -> dict:
    """Calibrated end-to-end metrics, and the raw times they scale."""
    cmd, raw_cmd = command_ms(passes, True), command_ms(passes, False)
    return {
        "wall_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        "cmd_p50_ms": (statistics.median(cmd), "ms"),
        "cmd_p90_ms": (p90(cmd), "ms"),
        "setup_s": (statistics.median(
            r["setup_s"] * r["setup_scale"] for r in launches), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes)
                        / 1024, "MB"),
        "raw_wall_s": (statistics.median(pass_seconds(p, False)
                                         for p in passes), "s"),
        "raw_cmd_p50_ms": (statistics.median(raw_cmd), "ms"),
        "raw_cmd_p90_ms": (p90(raw_cmd), "ms"),
        "raw_setup_s": (statistics.median(r["setup_s"] for r in launches), "s"),
    }


def pass_seconds(p, scaled: bool = True) -> float:
    """A pass's wall time: the sum of its command latencies."""
    if not scaled:
        return sum(p["latencies_ms"]) / 1e3
    return sum(ms * k for ms, k in zip(p["latencies_ms"], p["scales"])) / 1e3


def per_layer(traced, untraced) -> dict:
    """Median of each layer metric over the traced passes."""
    out = {}
    for key in traced[0]["layers"]:
        unit = "s" if key.endswith("_s") else "count"
        out[key] = (statistics.median(p["layers"][key] for p in traced), unit)
    out["trace_overhead_s"] = (
        statistics.median(pass_seconds(p) for p in traced)
        - statistics.median(pass_seconds(p) for p in untraced), "s")
    return out


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(names, computed) -> dict:
    """The declared metrics, by name, with their units."""
    metrics = {}
    for name, unit in names.items():
        if name not in computed or computed[name][1] != unit:
            raise BenchError(f"metric {name} ({unit}) is not measured")
        metrics[name] = {"value": computed[name][0], "unit": unit}
    return metrics


def print_end_to_end(metrics, n_passes, n_setups, n_commands):
    beyond = n_commands - math.ceil(0.9 * n_commands)
    counts = {"wall_s": f"median of {n_passes} passes",
              "cmd_p50_ms": f"over {n_commands} commands",
              "cmd_p90_ms": f"over {n_commands} commands, {beyond} beyond",
              "setup_s": f"median of {n_setups} launches",
              "peak_rss_mb": f"median of {n_passes} passes"}
    print(f"  {'metric':<16} {'calibrated':>12} {'raw':>12}")
    for name, note in counts.items():
        value, unit = metrics[name]
        raw = metrics.get("raw_" + name, (value,))[0]
        print(f"  {name:<16} {value:>12.4f} {raw:>12.4f} {unit:<6} {note}")


def print_layers(layers):
    from tracing import MODULES, RREF, RREF_COUNTS, TARGETS
    print(f"  {'function':<38} {'calls':>8} {'self_s':>9} {'total_s':>9}")
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        print(f"  {name:<38} {layers[name + '.calls'][0]:>8.0f} "
              f"{layers[name + '.self_s'][0]:>9.4f} "
              f"{layers[name + '.total_s'][0]:>9.4f}")
    for key in RREF_COUNTS:
        print(f"  {RREF}.{key:<27} {layers[f'{RREF}.{key}'][0]:>8.0f} count")
    print(f"  {'module':<38} {'self_s':>8}")
    for module in MODULES:
        print(f"  {module + '.self_s':<38} {layers[module + '.self_s'][0]:>8.4f} s")
    print(f"  {'trace_overhead_s':<38} {layers['trace_overhead_s'][0]:>8.4f} s"
          "  (traced minus untraced wall_s)")


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        raise BenchError(f"no poissondef sources under {PACKAGE}")
    compileall.compile_dir(PACKAGE, quiet=1)  # the build: bytecode, once
    args = ["--workload", workload, "--seed", str(seed)]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")

    launches = [launch("--setup-only") for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < seconds:
        untraced.append(launch(*args))
        if trace:
            traced.append(launch(*args, "--spans", spans_path))
    passes = untraced + traced
    launches += passes
    counts = tally(passes)

    print(f"workload {workload}  seed {seed}  "
          f"{len(untraced[0]['keys'])} commands per pass  "
          f"{len(untraced)} untraced, {len(traced)} traced passes")
    if trace:
        metrics = per_layer(traced, untraced)
        print_layers(metrics)
        print(f"  spans per traced pass: {traced[-1]['spans']} -> {spans_path}")
        names = declared("per_layer")
    else:
        metrics = end_to_end(untraced, launches)
        print_end_to_end(metrics, len(untraced), len(launches),
                         len(untraced[0]["keys"]))
        names = declared("end_to_end")
    bad = counts["failed"] + counts["tracebacks"]
    print(f"  {'error_rate':<16} {bad / counts['attempted']:>12.4f} ratio  "
          f"{bad}/{counts['attempted']} commands: {counts['failed']} golden "
          f"mismatches, {counts['tracebacks']} known tracebacks")
    print(f"  {'src_lines':<16} {src_lines():>12d} lines  informational, not gated")
    for key in counts["mismatched"]:
        print(f"  MISMATCH {key}")

    result = {"correct": counts["failed"] == 0,
              "attempted": counts["attempted"], "failed": counts["failed"],
              "metrics": report(names, metrics)}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
