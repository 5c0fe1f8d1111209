"""LAYER: import-graph purity rules.

Three architectural facts keep the reproducibility argument compositional:
the simulation core cannot know about the campaigns that drive it, the
observability layer can never feed back into simulation behavior, and the
certification/analysis layers consume results without touching the live
engine.  All three are checked on the import graph — transitively where the
contract is transitive — so a violation is caught at the import site, not
three PRs later in a golden-digest diff.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.graph import prefix_match
from repro.lint.rules.base import ProjectContext, Rule, in_scope, rooted
from repro.lint.source import SourceFile
from repro.lint.violations import Violation


def _import_violation(
    rule: Rule,
    src: SourceFile,
    lineno: int,
    message: str,
) -> Violation:
    return Violation(
        rule=rule.id,
        path=src.rel,
        line=lineno,
        col=0,
        message=message,
        symbol=src.module,
    )


def _edge_line(src: SourceFile, target: str) -> int:
    """Best line number for the import of ``target`` (or its parent)."""
    node = target
    while node:
        lineno = src.import_edges.get(node)
        if lineno is not None:
            return lineno
        node = node.rsplit(".", 1)[0] if "." in node else ""
    return 1


class SimPurityRule(Rule):
    """LAYER01: the simulation core must not import its drivers."""

    id = "LAYER01"
    summary = (
        "repro.sim may not import (even transitively) the campaign or "
        "scenario layers that drive it"
    )

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        for module in ctx.graph.modules:
            if not in_scope(module, "sim"):
                continue
            path = ctx.graph.find_path_to(module, rooted(module, "sim_forbidden"))
            if path is None:
                continue
            src = ctx.graph.source(module)
            chain = " -> ".join(path)
            yield _import_violation(
                self,
                src,
                _edge_line(src, path[1]),
                f"simulation core reaches a driver layer: {chain}; invert "
                "the dependency or move the shared code below repro.sim",
            )


class ObsLeafRule(Rule):
    """LAYER02: observability is an import leaf of the project."""

    id = "LAYER02"
    summary = (
        "repro.obs may not import any project module outside repro.obs — "
        "observation must never feed back into simulation"
    )

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        analyzed = set(ctx.graph.modules)
        for module in ctx.graph.modules:
            leaf = rooted(module, "leaf")
            if prefix_match(module, leaf) is None:
                continue
            top = module.split(".")[0]
            src = ctx.graph.source(module)
            reported_lines = set()
            for target, lineno in sorted(src.import_edges.items()):
                if prefix_match(target, leaf) is not None:
                    continue
                in_project = target in analyzed or target.split(".")[0] == top
                if in_project and lineno not in reported_lines:
                    reported_lines.add(lineno)
                    yield _import_violation(
                        self,
                        src,
                        lineno,
                        f"observability module imports {target}; repro.obs "
                        "must stay an import leaf so metrics can never "
                        "alter simulation behavior",
                    )


class ConsumerLayeringRule(Rule):
    """LAYER03: certification/analysis are read-only result consumers."""

    id = "LAYER03"
    summary = (
        "the behavior-producing core may not import certification/analysis, "
        "and those layers may not import the live engine back"
    )

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        for module in ctx.graph.modules:
            src = ctx.graph.source(module)
            consumers = rooted(module, "consumers")
            core = rooted(module, "core")
            if prefix_match(module, core) is not None:
                path = ctx.graph.find_path_to(module, consumers)
                if path is not None:
                    chain = " -> ".join(path)
                    yield _import_violation(
                        self,
                        src,
                        _edge_line(src, path[1]),
                        f"behavior-producing core depends on a read-only "
                        f"consumer layer: {chain}; simulation output must "
                        "not be shaped by its own analysis",
                    )
            elif prefix_match(module, consumers) is not None:
                path = ctx.graph.find_path_to(module, core)
                if path is not None:
                    chain = " -> ".join(path)
                    yield _import_violation(
                        self,
                        src,
                        _edge_line(src, path[1]),
                        f"read-only consumer imports the live engine: "
                        f"{chain}; consume result files and traces, not "
                        "the running simulation",
                    )
