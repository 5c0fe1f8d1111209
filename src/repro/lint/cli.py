"""``python -m repro.lint`` — the contract analyzer's command line.

Exit codes are stable and scriptable:

* ``0`` — clean (reasoned suppressions are fine),
* ``1`` — failing violations,
* ``2`` — usage error (argparse).

There is nothing to configure: each rule's scope is the table in
:mod:`repro.lint.rules.base`, rooted at the analysed package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.lint.engine import LintResult, run_lint
from repro.lint.rules import rule_catalog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Contract-aware static analyzer: determinism (DET*), hot-path "
            "discipline (HOT*), and import layering (LAYER*) rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _render_human(result: LintResult, stream: TextIO) -> None:
    write = stream.write
    for violation in result.failing:
        write(violation.render() + "\n")
    summary = (
        f"{len(result.failing)} violation(s) in {result.files_checked} "
        f"file(s); {len(result.suppressed)} suppressed, "
        f"{result.hot_functions} hot-marked function(s)"
    )
    write(summary + "\n")


def _render_json(result: LintResult, stream: TextIO) -> None:
    payload = {
        "version": 2,
        "violations": [violation.as_dict() for violation in result.failing],
        "suppressed": [violation.as_dict() for violation in result.suppressed],
        "summary": {
            "files": result.files_checked,
            "failing": len(result.failing),
            "suppressed": len(result.suppressed),
            "hot_functions": result.hot_functions,
            "exit_code": result.exit_code,
        },
    }
    stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in rule_catalog().items():
            sys.stdout.write(f"{rule_id}  {summary}\n")
        return 0

    paths: List[Path] = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(missing)}")

    result = run_lint(paths, root=Path.cwd())
    stream = sys.stdout
    if args.format == "json":
        _render_json(result, stream)
    else:
        _render_human(result, stream)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
