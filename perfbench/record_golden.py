"""Record the golden output of every benchmark command.

Runs each distinct command of every workload once, in-process, and writes
`golden.json`: exit code, byte count and SHA-256 of the report text for
each command, and the exception type of each command that raises (those
have no golden output).  Re-record only when a change to a report is meant.

    python3 perfbench/record_golden.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from poissondef.cli import run_command  # noqa: E402

from harness import GOLDEN, digest  # noqa: E402
from workloads import WORKLOADS, command_key, commands  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    golden = {"commands": {}, "tracebacks": {}}
    for workload in WORKLOADS:
        for argv in commands(workload):
            key = command_key(argv)
            try:
                code, text = run_command(argv)
            except Exception as e:
                golden["tracebacks"][key] = type(e).__name__
                continue
            golden["commands"][key] = {"exit": code, "bytes": len(text.encode()),
                                       "sha256": digest(text)}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden['commands'])} golden outputs, "
          f"{len(golden['tracebacks'])} tracebacks -> {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
