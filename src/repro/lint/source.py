"""Parsed source files: AST, comments, markers, suppressions, bindings.

Everything the rule families need from a file is computed exactly once here:

* the AST (``ast.parse``),
* the comment map (via ``tokenize`` — the AST drops comments),
* ``# repro-lint: hot`` markers resolved to the function definitions they
  annotate,
* ``# repro-lint: disable=RULE -- reason`` suppressions resolved to the
  lines they cover, and
* the import-name bindings (``alias -> module``, ``name -> (module, attr)``)
  that let rules resolve ``np.random.x`` or an imported class to its origin.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

HOT_MARKER = re.compile(r"#\s*repro-lint:\s*hot\b")
DISABLE_MARKER = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s*--\s*(.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline ``disable=`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    @property
    def has_reason(self) -> bool:
        return bool(self.reason.strip())


@dataclass
class SourceFile:
    """One analyzed module with every per-file derived fact."""

    path: Path
    rel: str
    module: str
    text: str
    lines: List[str]
    tree: ast.Module
    comments: Dict[int, str]
    suppressions: List[Suppression]
    hot_functions: List[ast.FunctionDef] = field(default_factory=list)
    # alias -> module for ``import x.y as alias``
    module_aliases: Dict[str, str] = field(default_factory=dict)
    # local name -> (module, original name) for ``from x import y [as z]``
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    # every absolute module named by an import, with the first line it appears
    import_edges: Dict[str, int] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressions_for_line(self, lineno: int) -> Iterator[Suppression]:
        """Suppressions covering ``lineno``: same line or the line above."""
        for suppression in self.suppressions:
            if suppression.line == lineno:
                yield suppression
            elif suppression.line == lineno - 1 and self._is_own_line(suppression.line):
                yield suppression

    def _is_own_line(self, lineno: int) -> bool:
        """True when the suppression comment sits alone on its line."""
        return self.line_text(lineno).lstrip().startswith("#")


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from the ``__init__.py`` package chain."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    package = path.parent
    while (package / "__init__.py").is_file():
        parts.insert(0, package.name)
        package = package.parent
    return ".".join(parts) if parts else path.stem


def _collect_comments(text: str) -> Dict[int, str]:
    comments: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
        pass
    return comments


def _collect_suppressions(comments: Dict[int, str]) -> List[Suppression]:
    suppressions: List[Suppression] = []
    for lineno in sorted(comments):
        match = DISABLE_MARKER.search(comments[lineno])
        if match is None:
            continue
        rules = tuple(
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        )
        reason = (match.group(2) or "").strip()
        suppressions.append(Suppression(line=lineno, rules=rules, reason=reason))
    return suppressions


def _collect_hot_functions(
    tree: ast.Module, comments: Dict[int, str]
) -> List[ast.FunctionDef]:
    """Functions annotated ``# repro-lint: hot``.

    The marker may trail the ``def`` line or sit on the line directly above
    it (above any decorators is NOT recognised — keep the marker adjacent to
    the ``def`` so it survives decorator edits).
    """
    hot_lines: Set[int] = {
        lineno for lineno, text in comments.items() if HOT_MARKER.search(text)
    }
    marked: List[ast.FunctionDef] = []
    if not hot_lines:
        return marked
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            if node.lineno in hot_lines or node.lineno - 1 in hot_lines:
                marked.append(node)
    marked.sort(key=lambda fn: fn.lineno)
    return marked


def _collect_imports(
    tree: ast.Module, module: str
) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]], Dict[str, int]]:
    aliases: Dict[str, str] = {}
    from_imports: Dict[str, Tuple[str, str]] = {}
    edges: Dict[str, int] = {}

    def note_edge(target: str, lineno: int) -> None:
        if target and target not in edges:
            edges[target] = lineno

    package_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
                note_edge(alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - node.level + 1]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            note_edge(base, node.lineno)
            for alias in node.names:
                if alias.name == "*":
                    continue
                from_imports[alias.asname or alias.name] = (base, alias.name)
                # ``from pkg import mod`` may name a submodule: record the
                # deeper edge too so layer checks see the true dependency.
                note_edge(f"{base}.{alias.name}", node.lineno)
    return aliases, from_imports, edges


def parse_source(path: Path, rel: str, module: Optional[str] = None) -> SourceFile:
    """Parse one file into a fully-derived :class:`SourceFile`."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    comments = _collect_comments(text)
    module_name = module if module is not None else module_name_for(path)
    aliases, from_imports, edges = _collect_imports(tree, module_name)
    return SourceFile(
        path=path,
        rel=rel,
        module=module_name,
        text=text,
        lines=text.splitlines(),
        tree=tree,
        comments=comments,
        suppressions=_collect_suppressions(comments),
        hot_functions=_collect_hot_functions(tree, comments),
        module_aliases=aliases,
        from_imports=from_imports,
        import_edges=edges,
    )
