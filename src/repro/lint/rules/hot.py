"""HOT: hot-path discipline rules.

Functions marked ``# repro-lint: hot`` run per kernel event, per message, or
per sample — millions of times per campaign.  Three allocation classes have
each been removed from this codebase's hot path once already (PR 2 and PR 4)
and must not creep back: instance-dict objects (un-slotted classes), fresh
payload dicts, and per-call function objects (lambdas, nested defs,
comprehension/generator machinery).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.rules.base import ProjectContext, Rule
from repro.lint.source import SourceFile
from repro.lint.violations import Violation


def _hot_walk(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk a hot function's body without descending into nested defs.

    A nested def is reported once (HOT03) as a whole; its body is the nested
    function's problem, not the hot caller's.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class UnslottedHotClassRule(Rule):
    """HOT01: objects built on the hot path must be ``__slots__`` classes."""

    id = "HOT01"
    summary = (
        "classes instantiated inside hot functions must declare __slots__ "
        "(or be dataclass(slots=True))"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        for fn in src.hot_functions:
            for node in _hot_walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                info = ctx.resolve_class(src, node.func)
                if info is None or info.slotted or info.exempt:
                    continue
                yield self.violation(
                    src,
                    node,
                    f"instantiates {info.name} (defined at "
                    f"{info.module}:{info.lineno}) which has no __slots__; "
                    "every instance allocates a dict on the hot path",
                    symbol=fn.name,
                )


class HotDictLiteralRule(Rule):
    """HOT02: no per-call payload dicts on the hot path."""

    id = "HOT02"
    summary = (
        "no non-empty dict literals or dict(...) payload construction "
        "inside hot functions; use slotted value types"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        for fn in src.hot_functions:
            for node in _hot_walk(fn):
                if isinstance(node, ast.Dict) and node.keys:
                    yield self.violation(
                        src,
                        node,
                        "dict literal allocated per call on the hot path; "
                        "carry a slotted value type instead",
                        symbol=fn.name,
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "dict"
                    and (node.args or node.keywords)
                ):
                    yield self.violation(
                        src,
                        node,
                        "dict(...) allocated per call on the hot path; "
                        "carry a slotted value type instead",
                        symbol=fn.name,
                    )


_CLOSURE_KINDS: Tuple[type, ...] = (
    ast.Lambda,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.GeneratorExp,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
)

_KIND_NAMES = {
    ast.Lambda: "lambda",
    ast.FunctionDef: "nested function",
    ast.AsyncFunctionDef: "nested async function",
    ast.GeneratorExp: "generator expression",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
}


class HotClosureRule(Rule):
    """HOT03: no per-call function or generator objects on the hot path."""

    id = "HOT03"
    summary = (
        "no lambdas, nested defs, comprehensions or generator expressions "
        "inside hot functions; hoist the callable or write a plain loop"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        for fn in src.hot_functions:
            for node in _hot_walk(fn):
                if isinstance(node, _CLOSURE_KINDS):
                    kind = _KIND_NAMES[type(node)]
                    yield self.violation(
                        src,
                        node,
                        f"{kind} allocates a function/generator object per "
                        "call on the hot path; hoist it to construction "
                        "time or unroll into a loop",
                        symbol=fn.name,
                    )

