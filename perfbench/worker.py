"""One cold pass of a workload in a fresh interpreter.

Started by `run.py`, never imported.  The first thing it does is import
`poissondef.cli` from the checkout's `src/`, and it reports the monotonic
clock at that moment so the parent can measure set-up time from launch.
It then times fifteen calibration blocks (`calibrate.py`) to scale that
set-up time, and samples the machine's speed throughout the pass.  It prints one
JSON object on stdout.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload corpus --seed 1 [--spans FILE]
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import poissondef.cli  # noqa: E402  (timed: this is the set-up being measured)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from calibrate import Sampler, block_seconds, speed  # noqa: E402

# The speed of the interpreter right after the set-up that was timed.
SETUP_SCALE = speed([block_seconds() for _ in range(15)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--spans", help="trace the pass and write spans here")
    args = ap.parse_args(argv)

    origin = os.path.dirname(os.path.abspath(poissondef.cli.__file__))
    if os.path.commonpath([origin, SRC]) != SRC:
        print(f"poissondef was imported from {origin}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": READY, "setup_scale": SETUP_SCALE}))
        return 0

    from harness import check_covered, load_golden, run_pass
    from workloads import commands

    cmds = commands(args.workload, args.seed)
    golden = load_golden()
    check_covered(golden, cmds)
    if args.spans:
        from tracing import Tracer, summarize, write_spans
        with Tracer() as tracer, Sampler() as sampler:
            result = run_pass(cmds, golden, tracer, sampler)
        write_spans(tracer.spans, args.spans)
        result["layers"] = summarize(tracer.spans, result["scales"],
                                     sampler.busy)
        result["spans"] = len(tracer.spans)
    else:
        with Sampler() as sampler:
            result = run_pass(cmds, golden, sampler=sampler)
    result["ready"] = READY
    result["setup_scale"] = SETUP_SCALE
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
