"""The benchmark's workloads: fixed lists of `poissondef` command lines.

Each command is an argv list for `poissondef.cli.run_command`, with file
paths relative to the root of the checkout.  The seed only permutes the
order of a workload's commands; the set of commands, and so the golden
outputs keyed by command, never depend on it.
"""

from __future__ import annotations

import random

EXAMPLES = "src/poissondef/examples"

# A fixed list, so that a new example file does not change the workload.
CORPUS_FILES = (
    "c3_line", "f0_bivector", "f0_extended", "f0_instability", "f1_bivector",
    "f1_extended", "f2_bivector", "f2_instability", "f3_bivector",
    "f3_extended", "f4_bivector", "f4_extended", "f5_bivector", "f5_extended",
    "p2_def", "p2_extended", "p2_extended_t", "p3_hyperplane",
    "p3_hyperplane_s", "p3_hyperplane_s2", "p3_line", "p3_line_bad",
    "p3_line_t",
)

# Every subcommand that takes one file, at its default settings.
CORPUS_COMMANDS = (
    ("validate",), ("tensors",), ("h0",), ("h0", "--complex", "extended"),
    ("hyper",), ("solve",), ("verify",), ("artin",),
)


def example(name: str) -> str:
    return f"{EXAMPLES}/{name}.pdef"


def _sections():
    return [
        ["h0", example("p3_hyperplane"), "--complex", "extended", "--bound", "6"],
        ["hyper", example("p3_hyperplane"), "--bound", "5"],
    ]


def _solver():
    return [
        ["solve", example("p3_hyperplane"), "--order", "40"],
        ["solve", example("p3_hyperplane_s2"), "--order", "24"],
        ["solve", example("p3_line"), "--order", "40"],
        ["solve", example("p2_extended"), "--seed", "0,1", "--order", "24"],
        ["solve", example("p2_extended_t"), "--seed", "0", "--order", "20"],
        ["verify", example("p2_extended"), "--order", "24"],
        ["match", example("p3_hyperplane"), example("p3_hyperplane_s2"),
         "--order", "24"],
        ["match", example("p3_line"), example("p3_line_t"), "--order", "16"],
        ["artin", example("p2_def"), "--bound", "5"],
        ["artin", example("p2_extended_t"), "--order", "3", "--bound", "5"],
        ["artin", example("p3_hyperplane"), "--order", "2", "--bound", "5"],
    ]


def _corpus():
    return [[sub[0], example(name), *sub[1:]]
            for sub in CORPUS_COMMANDS for name in CORPUS_FILES]


WORKLOADS = {"sections": _sections, "solver": _solver, "corpus": _corpus}


def commands(workload: str, seed: int | None = None) -> list[list[str]]:
    """The workload's command list; a seed permutes its order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    cmds = WORKLOADS[workload]()
    if seed is not None:
        random.Random(seed).shuffle(cmds)
    return cmds


def command_key(argv) -> str:
    """The golden-output key of a command: its argv joined by spaces."""
    return " ".join(argv)
