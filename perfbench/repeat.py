"""Repeat mode: run workloads several times and summarise every metric.

    python3 perfbench/repeat.py                       # every workload, 10 seeds
    python3 perfbench/repeat.py --workload corpus --runs 5 --trace 1

Each run is `run.py` in its own process, with seeds `--seed0`,
`--seed0 + 1`, ...  For each metric the summary gives the median, the
first and third quartiles (`statistics.quantiles(n=4)`) and the spread,
(q3 - q1) / median.  For end-to-end metrics it also shows the bound from
`BENCHMARK.json` and flags a spread above a third of it.  The bounds in
`BENCHMARK.json` are set from this output.  The runs' JSON results and the
summary are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(results, bounds) -> list:
    rows = []
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / median if median else float("nan")
        rows.append({"name": name, "unit": metric["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name)})
    return rows


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(OUT, exist_ok=True)
    summary = {}
    for workload in workloads:
        results = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            t0 = time.monotonic()
            results.append(run_once(workload, seed, args.seconds, args.trace))
            r = results[-1]
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"correct {r['correct']}, failed {r['failed']}/{r['attempted']}",
                  flush=True)
        rows = summarize(results, bounds)
        summary[workload] = {"runs": results, "summary": rows}
        print(f"\n{workload}: {args.runs} runs, --seconds {args.seconds}, "
              f"--trace {args.trace}")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for row in rows:
            bound = row["bound"]
            flag = ("  OVER BOUND/3" if bound is not None
                    and row["spread"] > bound / 3 else "")
            print(f"  {row['name'] + ' (' + row['unit'] + ')':<44} "
                  f"{row['median']:>12.4f} {row['q1']:>12.4f} {row['q3']:>12.4f} "
                  f"{row['spread']:>7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)
    path = os.path.join(OUT, f"repeat-trace{args.trace}-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"runs and summary -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
