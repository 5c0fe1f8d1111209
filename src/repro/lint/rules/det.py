"""DET: determinism rules.

The golden-digest contract makes simulation output a pure function of seeds
and inputs.  Every rule here targets a construct that has already produced —
or can produce — output that varies run-to-run: hash-seed-dependent set
iteration feeding ordered sinks, randomness outside the named-stream
discipline of :mod:`repro.sim.random`, wall-clock reads inside simulation
logic, and CPython object identity leaking into orderings.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.rules.base import ProjectContext, Rule, in_scope
from repro.lint.source import SourceFile
from repro.lint.violations import Violation

# --------------------------------------------------------------------- helpers


def _dotted_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]`` when the chain roots at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _resolve_dotted(src: SourceFile, node: ast.expr) -> Optional[str]:
    """Resolve an attribute chain to its fully-qualified dotted name.

    ``np.random.normal`` resolves through ``import numpy as np`` to
    ``numpy.random.normal``; ``datetime.now`` through ``from datetime import
    datetime`` to ``datetime.datetime.now``.
    """
    chain = _dotted_chain(node)
    if not chain:
        return None
    root = chain[0]
    module = src.module_aliases.get(root)
    if module is not None:
        return ".".join([module] + chain[1:])
    imported = src.from_imports.get(root)
    if imported is not None:
        base, original = imported
        return ".".join([base, original] + chain[1:])
    return ".".join(chain)


def _enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map each statement line to its enclosing def/class qualname."""
    symbols: Dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = f"{prefix}.{child.name}" if prefix else child.name
                end = child.end_lineno or child.lineno
                for line in range(child.lineno, end + 1):
                    symbols[line] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, "")
    return symbols


# ------------------------------------------------------------- DET01: set iter


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        stripped = node.value.split("[")[0].strip()
        return stripped in ("set", "frozenset", "Set", "FrozenSet")
    return False


class SetIterationRule(Rule):
    """DET01: iterating a set hands hash order to an ordered sink."""

    id = "DET01"
    summary = (
        "no iteration over set/frozenset values inside ordering-sensitive "
        "packages; sort first or use an insertion-ordered dict"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        if not in_scope(src.module, "det"):
            return
        symbols = _enclosing_symbols(src.tree)
        set_locals = self._set_typed_names(src.tree)
        set_attrs = self._set_typed_attributes(src.tree)
        for node in ast.walk(src.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                described = self._describe_set(candidate, set_locals, set_attrs)
                if described is not None:
                    yield self.violation(
                        src,
                        candidate,
                        f"iteration over {described} — ordering follows "
                        "PYTHONHASHSEED; wrap in sorted() or keep an "
                        "insertion-ordered dict",
                        symbol=symbols.get(candidate.lineno, ""),
                    )

    @staticmethod
    def _set_typed_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation):
                    names.add(node.target.id)
        return names

    @staticmethod
    def _set_typed_attributes(tree: ast.Module) -> Set[str]:
        """Attributes assigned set values anywhere (``self.x = set()``)."""
        attrs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ):
                if _is_set_annotation(node.annotation):
                    attrs.add(node.target.attr)
        return attrs

    @staticmethod
    def _describe_set(
        node: ast.expr, set_locals: Set[str], set_attrs: Set[str]
    ) -> Optional[str]:
        if _is_set_expr(node):
            return "a set expression"
        if isinstance(node, ast.Name) and node.id in set_locals:
            return f"set-typed name {node.id!r}"
        if isinstance(node, ast.Attribute) and node.attr in set_attrs:
            return f"set-typed attribute {node.attr!r}"
        return None


# -------------------------------------------------------- DET02: unseeded rand

#: ``random`` module attributes that are fine to touch: explicit generator
#: construction (callers must pass a seed — zero-arg construction is flagged)
#: and state plumbing.
_RANDOM_OK = {"Random", "SystemRandom", "seed", "getstate", "setstate"}

#: ``numpy.random`` attributes that construct seedable generators.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: numpy.random constructors that are unseeded when called with no arguments.
_NEEDS_SEED_ARG = {"default_rng", "RandomState", "Random", "SeedSequence"}


class UnseededRandomnessRule(Rule):
    """DET02: all randomness must flow through seeded, named streams."""

    id = "DET02"
    summary = (
        "no module-level random.*, bare numpy.random.*, uuid.uuid4 or "
        "os.urandom; derive seeded streams via repro.sim.random"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        symbols = _enclosing_symbols(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve_dotted(src, node.func)
            if dotted is None:
                continue
            message = self._classify(dotted, node)
            if message is not None:
                yield self.violation(
                    src, node, message, symbol=symbols.get(node.lineno, "")
                )

    @staticmethod
    def _classify(dotted: str, call: ast.Call) -> Optional[str]:
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            attr = parts[1]
            if attr not in _RANDOM_OK:
                return (
                    f"call to module-level random.{attr} draws from the "
                    "shared unseeded generator; use a seeded stream"
                )
            if attr in _NEEDS_SEED_ARG and not call.args and not call.keywords:
                return f"random.{attr}() constructed without a seed"
            return None
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            attr = parts[2]
            if attr not in _NP_RANDOM_OK:
                return (
                    f"call to bare numpy.random.{attr} uses numpy's global "
                    "state; use a seeded Generator"
                )
            if attr in _NEEDS_SEED_ARG and not call.args and not call.keywords:
                return f"numpy.random.{attr}() constructed without a seed"
            return None
        if dotted in ("uuid.uuid4", "uuid.uuid1"):
            return f"{dotted} is nondeterministic; derive ids from run seeds"
        if dotted == "os.urandom":
            return "os.urandom is nondeterministic; derive bytes from run seeds"
        return None


# ---------------------------------------------------------- DET03: wall clock

_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


class WallClockRule(Rule):
    """DET03: simulation logic must use simulated time, not the wall clock."""

    id = "DET03"
    summary = (
        "no time.time()/datetime.now() outside the wall-clock allowlist "
        "(observability and watchdog modules)"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        if in_scope(src.module, "wallclock"):
            return
        symbols = _enclosing_symbols(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve_dotted(src, node.func)
            if dotted is None:
                continue
            pretty = _WALL_CLOCK.get(dotted)
            if pretty is not None:
                yield self.violation(
                    src,
                    node,
                    f"wall-clock read {pretty} in simulation code; use "
                    "simulator.now (or add the module to the allowlist if "
                    "it genuinely measures real time)",
                    symbol=symbols.get(node.lineno, ""),
                )


# ------------------------------------------------------- DET04: identity order

_SORT_FUNCS = {"sorted", "min", "max"}
_HEAP_FUNCS = {"heappush", "heappushpop", "heapreplace"}


def _contains_identity_call(node: ast.AST) -> Optional[str]:
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in ("id", "hash")
        ):
            return child.func.id
    return None


class IdentityOrderingRule(Rule):
    """DET04: id()/hash() vary per process; they must not order anything."""

    id = "DET04"
    summary = (
        "no id() or object hash() inside sort keys or heap entries in "
        "ordering-sensitive packages"
    )

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        if not in_scope(src.module, "det"):
            return
        symbols = _enclosing_symbols(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = ""
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _SORT_FUNCS or name == "sort":
                for keyword in node.keywords:
                    if keyword.arg != "key":
                        continue
                    offender = self._key_uses_identity(keyword.value)
                    if offender:
                        yield self.violation(
                            src,
                            keyword.value,
                            f"sort key uses {offender}(), which varies per "
                            "process; key on stable fields instead",
                            symbol=symbols.get(node.lineno, ""),
                        )
            elif name in _HEAP_FUNCS and len(node.args) >= 2:
                offender = _contains_identity_call(node.args[1])
                if offender:
                    yield self.violation(
                        src,
                        node.args[1],
                        f"heap entry uses {offender}(), which varies per "
                        "process; use a sequence counter for tie-breaks",
                        symbol=symbols.get(node.lineno, ""),
                    )

    @staticmethod
    def _key_uses_identity(key: ast.expr) -> Optional[str]:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return key.id
        if isinstance(key, ast.Lambda):
            return _contains_identity_call(key.body)
        return None
