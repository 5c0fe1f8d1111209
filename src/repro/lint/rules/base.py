"""Rule protocol, the contract's scope table, and the shared class index."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.graph import ImportGraph, prefix_match
from repro.lint.source import SourceFile
from repro.lint.violations import Violation

#: Where each contract applies, as sub-packages of the analysed package.
#: :func:`in_scope` roots them at the top-level package of the module under
#: check, so ``src`` is checked as ``repro.sim``, ``repro.obs``, ... and a
#: copy of the tree under another package name is checked the same way.
SCOPE: Dict[str, Tuple[str, ...]] = {
    # DET01/DET04: packages whose ordering is part of the golden contract.
    "det": ("sim", "middleware", "campaign"),
    # DET03: modules allowed to read the wall clock (observability and the
    # campaign's worker watchdog genuinely measure real time).
    "wallclock": ("obs", "campaign.resilience"),
    # LAYER01: the simulation core must never depend on its drivers.
    "sim": ("sim",),
    "sim_forbidden": ("campaign", "scenarios"),
    # LAYER02: observability must stay an import leaf.
    "leaf": ("obs",),
    # LAYER03: read-only consumers vs the behavior-producing core.
    "consumers": ("certification", "analysis"),
    "core": ("sim", "middleware", "devices", "patient", "core"),
}


def rooted(module: str, key: str) -> Tuple[str, ...]:
    """``SCOPE[key]`` as dotted prefixes under ``module``'s top package."""
    top = module.split(".")[0]
    return tuple(f"{top}.{suffix}" for suffix in SCOPE[key])


def in_scope(module: str, key: str) -> bool:
    """True when ``module`` sits inside one of ``SCOPE[key]``'s packages."""
    return prefix_match(module, rooted(module, key)) is not None


#: Base-class names that mark a class as outside the hot-path slots contract:
#: exceptions are raised, not shipped per-event, and these stdlib shapes
#: manage their own storage.
_EXEMPT_BASES = {
    "Exception",
    "BaseException",
    "ABC",
    "Enum",
    "IntEnum",
    "Flag",
    "IntFlag",
    "NamedTuple",
    "Protocol",
    "TypedDict",
}


@dataclass(frozen=True)
class ClassInfo:
    """What HOT01 needs to know about one class definition."""

    module: str
    name: str
    lineno: int
    slotted: bool
    exempt: bool


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return ""


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            name = _base_name(decorator.func)
            if name == "dataclass":
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
    return False


def _is_exempt(cls: ast.ClassDef) -> bool:
    names = [cls.name] + [_base_name(base) for base in cls.bases]
    for name in names:
        if not name:
            continue
        if name in _EXEMPT_BASES:
            return True
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


def build_class_index(sources: List[SourceFile]) -> Dict[Tuple[str, str], ClassInfo]:
    """``(module, class name) -> ClassInfo`` over the analyzed file set."""
    index: Dict[Tuple[str, str], ClassInfo] = {}
    for src in sources:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                index[(src.module, node.name)] = ClassInfo(
                    module=src.module,
                    name=node.name,
                    lineno=node.lineno,
                    slotted=_declares_slots(node),
                    exempt=_is_exempt(node),
                )
    return index


@dataclass
class ProjectContext:
    """Everything rules may consult beyond the single file under check."""

    sources: List[SourceFile]
    graph: ImportGraph
    classes: Dict[Tuple[str, str], ClassInfo] = field(default_factory=dict)

    def resolve_class(self, src: SourceFile, func: ast.expr) -> Optional[ClassInfo]:
        """Resolve a call target to a class in the analyzed set, if possible."""
        if isinstance(func, ast.Name):
            info = self.classes.get((src.module, func.id))
            if info is not None:
                return info
            imported = src.from_imports.get(func.id)
            if imported is not None:
                module, original = imported
                return self.classes.get((module, original))
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = src.module_aliases.get(func.value.id)
            if module is not None:
                return self.classes.get((module, func.attr))
        return None


class Rule:
    """A named check.  Subclasses override one of the two hooks."""

    id: str = ""
    summary: str = ""

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        return iter(())

    def violation(
        self,
        src: SourceFile,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=self.id,
            path=src.rel,
            line=lineno,
            col=col,
            message=message,
            symbol=symbol,
        )


class SuppressionReasonRule(Rule):
    """LINT01: every inline suppression must say why."""

    id = "LINT01"
    summary = "# repro-lint: disable=... comments must carry a '-- reason'"

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        for suppression in src.suppressions:
            if not suppression.has_reason:
                yield Violation(
                    rule=self.id,
                    path=src.rel,
                    line=suppression.line,
                    col=0,
                    message=(
                        "suppression of "
                        + ",".join(suppression.rules)
                        + " has no reason; write "
                        "'# repro-lint: disable=RULE -- why this is safe'"
                    ),
                )
