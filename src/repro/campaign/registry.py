"""Scenario registry: declarative specs of campaign-runnable workloads.

Every clinical scenario that wants to participate in population-scale
campaigns registers a :class:`ScenarioSpec` — its name, default parameter
values, result schema, and a module-level runner callable.  Runners are
registered *by reference to an importable function*, so a worker process can
execute any manifest entry after a plain ``import``: nothing unpicklable
ever crosses the process boundary.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Runner signature: ``runner(params, seed) -> flat JSON-serialisable dict``.
ScenarioRunner = Callable[[Dict[str, Any], int], Dict[str, Any]]


class CampaignError(RuntimeError):
    """Raised for campaign-level misuse (unknown scenarios, bad specs, ...)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one campaign-runnable scenario.

    name:
        Registry key, referenced by :class:`repro.campaign.spec.CampaignSpec`.
    runner:
        Module-level callable ``(params, seed) -> record``.  Must be
        deterministic given its arguments — campaign reproducibility (and
        the serial/parallel equivalence guarantee) rests on this.
    defaults:
        Every recognised parameter with its default value.  Campaign specs
        may only sweep or fix parameters named here; anything else is a
        spec error, caught before any run executes.
    result_fields:
        Keys every record returned by ``runner`` is expected to contain
        (the scenario's result schema).
    supports_cohort:
        Whether the scenario consumes the auto-injected ``patient_index`` /
        ``cohort_seed`` parameters produced by cohort expansion.
    supports_faults:
        Whether the scenario honours the auto-injected ``fault_plan``
        parameter produced by a campaign spec's ``faults`` block (arming
        the compiled :class:`~repro.sim.faults.FaultSpec` schedule on its
        fault injector).
    spec_validator:
        Optional hook called with the whole campaign spec during
        :meth:`CampaignSpec.validate`, for scenario-specific constraints
        (e.g. "these parameters require a cohort"); raises
        :class:`CampaignError` before any run executes.
    """

    name: str
    runner: ScenarioRunner = field(compare=False)
    defaults: Mapping[str, Any] = field(default_factory=dict)
    result_fields: Tuple[str, ...] = ()
    supports_cohort: bool = False
    supports_faults: bool = False
    description: str = ""
    spec_validator: Optional[Callable[[Any], None]] = field(default=None, compare=False)

    #: Parameters the engine injects itself; always legal for cohort scenarios.
    AUTO_PARAMS = ("patient_index", "cohort_seed", "repeat")

    #: Fault-expansion parameters the engine injects for fault-capable
    #: scenarios: the compiled plan itself plus per-axis values such as
    #: ``fault0.duration`` (kept in params so reports can group by them).
    FAULT_PARAM = "fault_plan"
    FAULT_AXIS_PREFIX = "fault"

    @classmethod
    def is_fault_axis(cls, name: str) -> bool:
        """Whether ``name`` is an engine-injected fault sweep axis."""
        prefix, dot, _field = name.partition(".")
        return (dot == "." and prefix.startswith(cls.FAULT_AXIS_PREFIX)
                and prefix[len(cls.FAULT_AXIS_PREFIX):].isdigit())

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject parameters the scenario does not recognise.

        A ``duration_s``, fixed or swept, must also be a finite positive
        number: a NaN or infinite horizon would never end the run.
        """
        allowed = set(self.defaults) | set(self.AUTO_PARAMS)
        if self.supports_faults:
            allowed.add(self.FAULT_PARAM)
        unknown = sorted(
            key for key in set(params) - allowed
            if not (self.supports_faults and self.is_fault_axis(key))
        )
        if unknown:
            raise CampaignError(
                f"scenario {self.name!r} does not accept parameters {unknown}; "
                f"known parameters: {sorted(self.defaults)}"
            )
        if "duration_s" in self.defaults and "duration_s" in params:
            durations = params["duration_s"]
            for duration in (durations if isinstance(durations, list) else [durations]):
                if (isinstance(duration, bool) or not isinstance(duration, (int, float))
                        or not (math.isfinite(duration) and duration > 0)):
                    raise CampaignError(
                        f"scenario {self.name!r} parameter 'duration_s' must be a finite "
                        f"positive number, got {duration!r}"
                    )

    def resolved_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults overlaid with ``params`` (auto params passed through).

        Structured defaults (dicts/lists, e.g. a topology spec) are deep
        copied: manifests outlive this call, and a runner mutating its params
        in one run must never leak into the shared default of the next.
        """
        self.validate_params(params)
        resolved = {
            key: copy.deepcopy(value) if isinstance(value, (dict, list)) else value
            for key, value in self.defaults.items()
        }
        resolved.update(params)
        return resolved


_REGISTRY: Dict[str, ScenarioSpec] = {}
_BUILTINS_LOADED = False


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec``, replacing any previous spec of the same name."""
    _REGISTRY[spec.name] = spec
    return spec


def campaign_scenario(
    name: str,
    *,
    defaults: Optional[Mapping[str, Any]] = None,
    result_fields: Tuple[str, ...] = (),
    supports_cohort: bool = False,
    supports_faults: bool = False,
    description: str = "",
    spec_validator: Optional[Callable[[Any], None]] = None,
) -> Callable[[ScenarioRunner], ScenarioRunner]:
    """Decorator registering a module-level function as a scenario runner."""

    def decorate(runner: ScenarioRunner) -> ScenarioRunner:
        doc_first_line = (runner.__doc__ or "").strip().splitlines()
        register_scenario(
            ScenarioSpec(
                name=name,
                runner=runner,
                defaults=dict(defaults or {}),
                result_fields=tuple(result_fields),
                supports_cohort=supports_cohort,
                supports_faults=supports_faults,
                description=description or (doc_first_line[0] if doc_first_line else ""),
                spec_validator=spec_validator,
            )
        )
        return runner

    return decorate


def ensure_builtin_scenarios() -> None:
    """Import the bundled scenario modules so their registrations run."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Imported lazily to avoid a cycle: scenario modules import this module.
    import repro.scenarios  # noqa: F401

    _BUILTINS_LOADED = True


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario, loading the builtins on first use."""
    ensure_builtin_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CampaignError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    ensure_builtin_scenarios()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
