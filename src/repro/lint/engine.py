"""The lint runner: collect files, run rules, fold suppressions.

Pipeline per invocation:

1. collect ``.py`` files under the requested paths (skipping caches),
2. parse each into a :class:`~repro.lint.source.SourceFile` (syntax errors
   become LINT02 violations rather than crashes),
3. build the import graph and class index once,
4. run every rule,
5. drop violations covered by a reasoned inline suppression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.graph import ImportGraph
from repro.lint.rules import ProjectContext, all_rules, build_class_index
from repro.lint.source import SourceFile, parse_source
from repro.lint.violations import Violation

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"}

PARSE_ERROR_RULE = "LINT02"


@dataclass
class LintResult:
    """Everything one run produced, pre-sorted for stable output."""

    failing: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    hot_functions: int = 0

    @property
    def exit_code(self) -> int:
        """0 clean; 1 failing violations."""
        return 1 if self.failing else 0


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under ``paths``, deterministic order, no caches."""
    found: List[Path] = []
    seen: Dict[Path, None] = {}
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen[resolved] = None
            found.append(candidate)
    return found


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_all(
    files: Sequence[Path], root: Path
) -> Tuple[List[SourceFile], List[Violation]]:
    sources: List[SourceFile] = []
    errors: List[Violation] = []
    for path in files:
        rel = _relative(path, root)
        try:
            sources.append(parse_source(path, rel))
        except SyntaxError as exc:
            errors.append(
                Violation(
                    rule=PARSE_ERROR_RULE,
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    return sources, errors


def _apply_suppressions(
    violations: List[Violation], by_rel: Dict[str, SourceFile]
) -> Tuple[List[Violation], List[Violation]]:
    kept: List[Violation] = []
    suppressed: List[Violation] = []
    for violation in violations:
        src = by_rel.get(violation.path)
        if src is None or violation.rule == "LINT01":
            kept.append(violation)
            continue
        reasoned = False
        for suppression in src.suppressions_for_line(violation.line):
            if violation.rule in suppression.rules and suppression.has_reason:
                reasoned = True
                break
        (suppressed if reasoned else kept).append(violation)
    return kept, suppressed


def run_lint(paths: Sequence[Path], *, root: Optional[Path] = None) -> LintResult:
    """Lint ``paths``; violation paths are reported relative to ``root``."""
    root = root or Path.cwd()
    files = collect_files(paths)
    sources, violations = _parse_all(files, root)

    ctx = ProjectContext(
        sources=sources,
        graph=ImportGraph(sources),
        classes=build_class_index(sources),
    )
    for rule in all_rules():
        for src in sources:
            violations.extend(rule.check_file(src, ctx))
        violations.extend(rule.check_project(ctx))

    by_rel = {src.rel: src for src in sources}
    failing, suppressed = _apply_suppressions(violations, by_rel)
    failing.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintResult(
        failing=failing,
        suppressed=suppressed,
        files_checked=len(files),
        hot_functions=sum(len(src.hot_functions) for src in sources),
    )
