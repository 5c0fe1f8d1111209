"""Shared configuration for the experiment benchmarks.

Each benchmark reproduces one experiment from DESIGN.md / EXPERIMENTS.md and
prints the table or series the paper's claim corresponds to, in addition to
timing the run via pytest-benchmark.

Performance-trajectory benchmarks additionally emit machine-readable
``BENCH_<name>.json`` records via :func:`emit_json`.  Every emitted record —
printed or written — carries the git sha and an ISO timestamp so the numbers
stay attributable across PRs.
"""

import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REPO_ROOT = Path(__file__).resolve().parents[1]


def git_sha() -> str:
    """Current commit sha, or "unknown" outside a git checkout.

    Suffixed ``-dirty`` when tracked files differ from that commit, so
    numbers measured on an uncommitted change are not attributed to its
    parent.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode != 0:
            return "unknown"
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=10,
        ).returncode == 1
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() + ("-dirty" if dirty else "")


def bench_meta() -> dict:
    """The attribution fields stamped onto every emitted benchmark record."""
    return {
        "git_sha": git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def emit(table) -> None:
    """Print an experiment table so it appears in the benchmark output."""
    meta = bench_meta()
    print()
    print(table.render())
    print(f"[bench-meta] git_sha={meta['git_sha']} timestamp={meta['timestamp']}")


def emit_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` (payload + git sha + ISO timestamp).

    The output directory defaults to the repository root so the trajectory
    files sit next to ROADMAP.md; override with the ``BENCH_DIR`` env var
    (CI points it at the artifact upload directory).
    """
    directory = Path(os.environ.get("BENCH_DIR", REPO_ROOT))
    directory.mkdir(parents=True, exist_ok=True)
    record = dict(payload)
    record.update(bench_meta())
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"[bench-json] wrote {path}")
    return path
