"""Import graph over the analyzed file set, with reachability queries.

Nodes are the analyzed modules; edges come straight from each file's import
statements.  Imports of modules outside the analyzed set (stdlib, numpy)
are kept as *external* edge labels so prefix checks still see them, but they
are never expanded — the graph cannot leave the project.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.source import SourceFile


def prefix_match(module: str, prefixes: Iterable[str]) -> Optional[str]:
    """The first prefix that ``module`` equals or sits inside, if any."""
    for prefix in prefixes:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


class ImportGraph:
    """Directed import graph with shortest-path reachability."""

    def __init__(self, sources: Iterable[SourceFile]) -> None:
        self._sources: Dict[str, SourceFile] = {src.module: src for src in sources}
        self._edges: Dict[str, Dict[str, int]] = {}
        modules = self._sources.keys()
        for module, src in self._sources.items():
            resolved: Dict[str, int] = {}
            for target, lineno in src.import_edges.items():
                # ``from pkg import name`` records ``pkg.name`` even when
                # ``name`` is a class; collapse such phantom nodes onto the
                # longest analyzed module they sit inside.
                node = target
                while node not in modules and "." in node:
                    node = node.rsplit(".", 1)[0]
                key = node if node in modules else target
                if key != module and key not in resolved:
                    resolved[key] = lineno
            self._edges[module] = resolved

    @property
    def modules(self) -> Tuple[str, ...]:
        return tuple(sorted(self._sources))

    def source(self, module: str) -> SourceFile:
        return self._sources[module]

    def find_path_to(
        self, start: str, forbidden: Tuple[str, ...]
    ) -> Optional[List[str]]:
        """Shortest import chain from ``start`` to any forbidden prefix.

        Returns ``[start, ..., offender]`` or ``None``.  Traversal only
        expands analyzed modules, so external edges terminate the search at
        their label.
        """
        queue: deque[str] = deque([start])
        parents: Dict[str, Optional[str]] = {start: None}
        while queue:
            module = queue.popleft()
            for target in sorted(self._edges.get(module, {})):
                if prefix_match(target, forbidden) is not None:
                    chain = [target, module]
                    parent = parents[module]
                    while parent is not None:
                        chain.append(parent)
                        parent = parents[parent]
                    chain.reverse()
                    return chain
                if target in parents or target not in self._sources:
                    continue
                parents[target] = module
                queue.append(target)
        return None

