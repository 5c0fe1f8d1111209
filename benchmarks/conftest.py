"""Shared configuration for the paper-claim checks.

Each ``bench_e*.py`` / ``bench_fig1_control_loop.py`` check reproduces one
experiment of the paper, asserts the claim it supports, and prints the
table or series the claim corresponds to.  Timing is perfbench's job
(``perfbench/run.py``), not theirs.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def emit(table) -> None:
    """Print an experiment table so it appears in the check's output."""
    print()
    print(table.render())
