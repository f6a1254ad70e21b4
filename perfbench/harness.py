"""One pass over a workload's commands, checked against golden outputs.

`run_pass` calls `poissondef.cli.run_command` for each command in turn and
times each call.  Every command's (exit code, report text) is compared with
the digest recorded in `golden.json`.  A command recorded there as raising
has no golden output: it counts as a traceback while it raises and as
passed once it returns exit code 0, 1 or 2.

With a `calibrate.Sampler` running, the pass takes one speed sample before
the first command and one after the last, subtracts the time of every
sample from the latency it fell in, and gives each command the scale of
the samples around it, which turns its latency into seconds at the
reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
from time import perf_counter

from workloads import command_key

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")

PASS, FAILED, TRACEBACK = "pass", "failed", "traceback"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(path: str = GOLDEN) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_covered(golden: dict, cmds) -> None:
    """Every command must have a golden output or a recorded traceback."""
    missing = [command_key(c) for c in cmds
               if command_key(c) not in golden["commands"]
               and command_key(c) not in golden["tracebacks"]]
    if missing:
        raise ValueError(f"no golden output for {len(missing)} command(s), "
                         f"first: {missing[0]!r}")


def judge(golden: dict, key: str, code, text, error) -> str:
    want = golden["commands"].get(key)
    if want is None:
        if error is not None:
            return TRACEBACK
        return PASS if code in (0, 1, 2) else FAILED
    if error is not None:
        return FAILED
    if code == want["exit"] and digest(text) == want["sha256"]:
        return PASS
    return FAILED


def run_pass(cmds, golden: dict, tracer=None, sampler=None) -> dict:
    """Run every command once, in order, and judge it.

    `run_command` is looked up on the module at each call, so a tracer's
    rebinding of it is seen.  Returns each command's latency in ms and
    status and, with a sampler, scale; sampling time is not part of any
    latency.
    """
    from poissondef import cli

    windows, statuses = [], []
    if sampler is not None:
        sampler.sample()
    for i, argv in enumerate(cmds):
        if tracer is not None:
            tracer.command = i
        code = text = error = None
        t0 = perf_counter()
        try:
            code, text = cli.run_command(list(argv))
        except Exception as e:  # a traceback the library let escape
            error = f"{type(e).__name__}: {e}"
        windows.append((t0, perf_counter()))
        statuses.append(judge(golden, command_key(argv), code, text, error))
    if sampler is not None:
        sampler.sample()
    busy = sampler.busy if sampler is not None else (lambda t0, t1: 0.0)
    result = {"statuses": statuses,
              "keys": [command_key(c) for c in cmds],
              "latencies_ms": [(t1 - t0 - busy(t0, t1)) * 1e3
                               for t0, t1 in windows]}
    if sampler is not None:
        result["scales"] = [sampler.scale(t0, t1) for t0, t1 in windows]
    return result
