"""Every public top-level definition in ``src`` has a user outside the tests.

A definition that no ``src`` module, claim check, example or perfbench
workload uses is library surface that only its own tests run.  The scan
parses ``src``, ``benchmarks/``, ``examples/`` and ``perfbench/``, and
counts a public module-level class, function or constant as used when one
of them names it -- a name, an attribute or a ``from`` import -- outside its
own definition and outside a package ``__init__`` re-export.  A definition
under a registering decorator (the ``@campaign_scenario`` runners) is used
by its registry; ``@dataclass`` registers nothing, so it does not count.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USERS = ("src", "benchmarks", "examples", "perfbench")

# Public API that nothing runs yet, each kept on purpose.
KEEP = {
    "repro.campaign.store.load_results":
        "the campaign store's public reader of a directory's intact records",
    "repro.campaign.store.load_errors":
        "the campaign store's public reader of a directory's quarantined runs",
    "repro.obs.export.write_snapshot":
        "the observability snapshot writer, public API of the export format",
    "repro.obs.export.merge_snapshots":
        "the observability snapshot merger, public API of the export format",
    "repro.security.audit.AuditLog":
        "the only tamper-evident (hash-chained) record: forensic readiness "
        "needs records whose integrity can be proven",
    "repro.workflow.semantics.ScenarioInterpreter":
        "gives a workflow procedure its execution semantics; only its own "
        "explore_all_outcomes and the tests construct it",
}

Definition = Tuple[Path, str, str, int, int]  # file, module, name, first and last line


def _python_files(base: Path) -> Iterator[Path]:
    return (path for path in sorted(base.rglob("*.py")) if "__pycache__" not in path.parts)


def _registers(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return not (isinstance(target, ast.Name) and target.id == "dataclass")


def _public_names(node: ast.stmt) -> List[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [] if any(map(_registers, node.decorator_list)) else [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def public_definitions() -> List[Definition]:
    found: List[Definition] = []
    for path in _python_files(SRC):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            found.extend((path, module, name, node.lineno, node.end_lineno) for name in _public_names(node))
    return found


def references() -> Dict[str, Set[Tuple[Path, int]]]:
    """Each identifier the users name, with where they name it."""
    named: Dict[str, Set[Tuple[Path, int]]] = {}
    for base in USERS:
        for path in _python_files(ROOT / base):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    named.setdefault(name, set()).add((path, node.lineno))
    return named


def unused_definitions() -> List[str]:
    named = references()
    return sorted(
        f"{module}.{name}"
        for path, module, name, first, last in public_definitions()
        if all(where == path and first <= line <= last for where, line in named.get(name, ())))


@pytest.fixture(scope="module")
def unused() -> List[str]:
    return unused_definitions()


def test_every_public_definition_has_a_user_or_a_reason_to_stay(unused):
    unexplained = [name for name in unused if name not in KEEP]
    assert not unexplained, (
        "public definitions that only tests use; delete them or name a reason in KEEP: "
        + ", ".join(unexplained))


def test_each_kept_definition_is_still_unused(unused):
    # A keep that gains a user no longer needs its reason.
    assert sorted(set(KEEP) - set(unused)) == []
