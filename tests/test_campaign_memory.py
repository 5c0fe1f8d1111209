"""Campaign memory: one finished run's object graph in memory at a time.

The engine frees each finished run's reference cycles at the run boundary
(serially and in every worker process) and leaves the caller's collector as it
found it.  That is safe only because no module in ``src/repro`` observes
when the collector runs -- guarded here by an AST walk.
"""

from __future__ import annotations

import ast
import gc
import weakref
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import pytest

from repro.campaign import CampaignError, CampaignSpec, run_campaign
from repro.campaign import registry
from repro.campaign.registry import ScenarioSpec, register_scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ---------------------------------------------------------- run-boundary gc
class _Node:
    """One object in a reference cycle, like a finished run's simulator."""

    def __init__(self) -> None:
        self.cycle = self


#: Weak reference to the cycle the previous run in this process built.
_PREVIOUS: Optional["weakref.ReferenceType[_Node]"] = None


def _cycle_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Report whether the previous run's cycle survived into this run."""
    global _PREVIOUS
    previous_alive = _PREVIOUS is not None and _PREVIOUS() is not None
    node = _Node()
    _PREVIOUS = weakref.ref(node)
    # ``node`` is still referenced, so this moves it to the oldest
    # generation: only a full collection after the run can free it.
    gc.collect()
    return {"previous_alive": previous_alive}


@pytest.fixture
def cycle_scenario() -> Iterator[str]:
    global _PREVIOUS
    _PREVIOUS = None
    register_scenario(ScenarioSpec(name="_gc_cycle", runner=_cycle_runner,
                                   result_fields=("previous_alive",)))
    try:
        yield "_gc_cycle"
    finally:
        registry._REGISTRY.pop("_gc_cycle", None)
        _PREVIOUS = None


def _alive_flags(report) -> List[bool]:
    return [result["previous_alive"] for result in report.results()]


class TestRunBoundaryReclamation:
    def test_serial_runs_start_without_the_previous_runs_cycle(self, cycle_scenario):
        spec = CampaignSpec(name="gc", scenario=cycle_scenario, repeats=5)
        report = run_campaign(spec)
        assert _alive_flags(report) == [False] * 5

    def test_pool_workers_start_without_the_previous_runs_cycle(self, cycle_scenario):
        # The engine forks its workers (the Linux default start method), so
        # they inherit the scenario registered in this process.
        spec = CampaignSpec(name="gc", scenario=cycle_scenario, repeats=8)
        report = run_campaign(spec, workers=2)
        assert report.ok == 8
        assert _alive_flags(report) == [False] * 8


class TestCallerCollectorRestored:
    def collector_state(self):
        return gc.get_freeze_count(), gc.isenabled()

    def chaos(self, **params: Any) -> CampaignSpec:
        return CampaignSpec(name="gc-state", scenario="chaos", repeats=3,
                            parameters=params)

    def test_serial_campaign_leaves_freeze_count_and_enabled_flag(self):
        before = self.collector_state()
        run_campaign(self.chaos())
        assert self.collector_state() == before

    def test_fail_fast_error_still_unfreezes(self):
        before = self.collector_state()
        with pytest.raises(CampaignError, match="scripted deterministic"):
            run_campaign(self.chaos(raise_at="1"))
        assert self.collector_state() == before

    def test_callers_frozen_objects_and_disabled_collector_are_kept(self):
        gc.disable()
        gc.freeze()
        try:
            before = self.collector_state()
            assert before[0] > 0
            run_campaign(self.chaos())
            assert self.collector_state() == before
        finally:
            gc.unfreeze()
            gc.enable()


# ------------------------------------------ collector timing cannot leak out
def collector_observers(module: Path) -> List[str]:
    """What in ``module`` could run code when the collector frees an object.

    A ``__del__`` method, ``weakref.finalize`` and a ``weakref.ref`` with a
    callback all do; a module using none of them gives the same results
    whenever collections happen.
    """
    tree = ast.parse(module.read_text(encoding="utf-8"))
    weakref_aliases = {"weakref"}
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "weakref":
                    weakref_aliases.add(alias.asname or "weakref")
        elif isinstance(node, ast.ImportFrom) and node.module == "weakref":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name

    def weakref_attr(func: ast.expr) -> Optional[str]:
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in weakref_aliases):
            return func.attr
        if isinstance(func, ast.Name):
            return names.get(func.id)
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "__del__":
            found.append(f"line {node.lineno}: defines __del__")
        elif isinstance(node, ast.Call):
            attr = weakref_attr(node.func)
            if attr == "finalize":
                found.append(f"line {node.lineno}: calls weakref.finalize")
            elif attr in ("ref", "ReferenceType") and (
                    len(node.args) > 1 or node.keywords):
                found.append(f"line {node.lineno}: weakref.ref with a callback")
    return found


class TestCollectorTimingCannotChangeResults:
    def test_src_has_no_finalizers_or_weakref_callbacks(self):
        offenders = {
            str(path.relative_to(SRC)): found
            for path in sorted(SRC.rglob("*.py"))
            if (found := collector_observers(path))
        }
        assert offenders == {}

    @pytest.mark.parametrize("source", [
        "class Run:\n    def __del__(self):\n        pass\n",
        "import weakref\nweakref.finalize(object(), print)\n",
        "import weakref as w\nw.ref(object(), print)\n",
        "from weakref import ref\nref(object(), callback=print)\n",
        "from weakref import finalize as fin\nfin(object(), print)\n",
    ])
    def test_guard_flags_a_scratch_module(self, tmp_path, source):
        module = tmp_path / "scratch.py"
        module.write_text(source, encoding="utf-8")
        assert len(collector_observers(module)) == 1

    def test_guard_allows_a_plain_weak_reference(self, tmp_path):
        module = tmp_path / "scratch.py"
        module.write_text("import weakref\nweakref.ref(object())\n", encoding="utf-8")
        assert collector_observers(module) == []
