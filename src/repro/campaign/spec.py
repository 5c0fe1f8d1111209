"""Campaign specifications and their expansion into run manifests.

A :class:`CampaignSpec` is a declarative description of a population-scale
experiment: one registered scenario, a parameter space (scalars are fixed,
lists are swept as a cross product), an optional patient cohort, and a
repeat count.  :meth:`CampaignSpec.expand` turns it into a flat list of
:class:`RunManifest` entries, each carrying a stable ``run_id`` and a seed
derived from that id through :func:`repro.sim.random.derive_seed` — so a
run's randomness depends only on the campaign seed and the run's identity,
never on execution order, worker placement, or resume history.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.campaign.registry import CampaignError, get_scenario
from repro.sim.random import derive_seed


@dataclass(frozen=True)
class RunManifest:
    """One unit of campaign work: a scenario invocation with bound parameters."""

    run_index: int
    run_id: str
    scenario: str
    params: Dict[str, Any]
    seed: int

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


#: Fault-entry fields that may be swept (list-valued) in a ``faults`` block.
SWEEPABLE_FAULT_FIELDS = ("start", "duration", "target")


def axis_id_value(value: Any) -> str:
    """Render one bound axis value for a run id.

    Scalars keep their plain ``str`` form (existing run ids must not move).
    Structured values — topology specs and other dict/list sweeps — are
    digested over their canonical JSON: the id stays short and stable, and
    never embeds ``&``/``=``/whitespace from the structure itself.
    """
    if isinstance(value, (dict, list)):
        canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return str(value)


@dataclass
class CampaignSpec:
    """Declarative description of a simulation campaign.

    parameters:
        Mapping of scenario parameter name to either a scalar (fixed for
        every run) or a list of values (swept; the cross product of all
        swept parameters defines the configuration grid).
    cohort_size:
        If positive, every grid point additionally runs once per patient in
        a reproducible cohort of this size (scenario must support cohorts).
    repeats:
        Independent replications of every (grid point, patient) cell, each
        with its own derived seed.
    base_seed:
        Master seed; everything stochastic in the campaign derives from it.
    faults:
        Declarative fault-injection block: a list of fault entries, each a
        dict with ``kind`` (fixed), optional ``parameters`` (fixed), and
        ``start`` / ``duration`` / ``target`` either scalar or list-valued
        — list values are swept exactly like swept parameters, joining the
        configuration cross product as axes named ``fault<i>.<field>``.
        Every grid point compiles its resolved entries into a
        ``fault_plan`` parameter (plain JSON dicts) that a fault-capable
        scenario runner arms on its :class:`~repro.sim.faults.FaultInjector`,
        so ``repro-campaign run`` can sweep outage duration x start time x
        target channel — the paper's Section II(c) communication-failure
        experiment at population scale.
    """

    name: str
    scenario: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    cohort_size: int = 0
    repeats: int = 1
    base_seed: int = 0
    description: str = ""
    faults: List[Dict[str, Any]] = field(default_factory=list)

    def _validate_types(self) -> None:
        """Reject fields of the wrong JSON type before any value check."""
        for name in ("name", "scenario", "description"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise CampaignError(f"{name} must be a string, got {type(value).__name__}")
        if not isinstance(self.parameters, dict):
            raise CampaignError(
                f"parameters must be an object, got {type(self.parameters).__name__}"
            )
        for name in ("cohort_size", "repeats", "base_seed"):
            value = getattr(self, name)
            # bool is an int subclass; `true` is never a count or a seed.
            if isinstance(value, bool) or not isinstance(value, int):
                raise CampaignError(
                    f"{name} must be an integer, got {type(value).__name__} {value!r}"
                )
        if not isinstance(self.faults, list):
            raise CampaignError(
                f"faults must be a list, got {type(self.faults).__name__}"
            )

    def validate(self) -> None:
        self._validate_types()
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        if self.repeats < 1:
            raise CampaignError("repeats must be >= 1")
        if self.cohort_size < 0:
            raise CampaignError("cohort_size must be non-negative")
        if self.base_seed < 0:
            raise CampaignError("base_seed must be non-negative")
        scenario = get_scenario(self.scenario)
        empty = [key for key, value in self.parameters.items()
                 if isinstance(value, list) and not value]
        if empty:
            raise CampaignError(
                f"swept parameters {empty} have no values; the campaign would "
                "expand to zero runs"
            )
        reserved = sorted(set(scenario.AUTO_PARAMS) & set(self.parameters))
        if reserved:
            raise CampaignError(
                f"parameters {reserved} are injected by the engine (use cohort_size "
                "/ repeats instead of setting them directly)"
            )
        scenario.validate_params(dict(self.parameters))
        if self.cohort_size > 0 and not scenario.supports_cohort:
            raise CampaignError(
                f"scenario {self.scenario!r} does not support patient cohorts"
            )
        self._validate_faults(scenario)
        if scenario.spec_validator is not None:
            scenario.spec_validator(self)

    def _validate_faults(self, scenario) -> None:
        if not self.faults:
            return
        if not scenario.supports_faults:
            raise CampaignError(
                f"scenario {self.scenario!r} does not support fault injection "
                "(no fault_plan parameter); remove the campaign 'faults' block"
            )
        from repro.sim.faults import FAULT_KINDS

        for index, entry in enumerate(self.faults):
            if not isinstance(entry, dict):
                raise CampaignError(
                    f"faults[{index}] must be an object, got {type(entry).__name__}"
                )
            unknown = sorted(set(entry) - {"kind", "start", "duration",
                                           "target", "parameters"})
            if unknown:
                raise CampaignError(
                    f"faults[{index}] has unknown fields {unknown}"
                )
            kind = entry.get("kind")
            if kind not in FAULT_KINDS:
                raise CampaignError(
                    f"faults[{index}] kind {kind!r} is not one of {FAULT_KINDS}"
                )
            if "start" not in entry:
                raise CampaignError(f"faults[{index}] requires a 'start' time")
            for field_name in SWEEPABLE_FAULT_FIELDS:
                value = entry.get(field_name)
                if isinstance(value, list) and not value:
                    raise CampaignError(
                        f"faults[{index}].{field_name} sweeps no values; the "
                        "campaign would expand to zero runs"
                    )

    # ------------------------------------------------------------- expansion
    def sweep_axes(self) -> List[str]:
        """Names of the swept (list-valued) parameters, in declaration order.

        Swept fault fields follow the parameter axes as ``fault<i>.<field>``
        (their resolved values are injected into every run's params, so
        reports can group by them like any other axis).
        """
        axes = [key for key, value in self.parameters.items()
                if isinstance(value, list)]
        axes.extend(axis for axis, _values in self._fault_axes())
        return axes

    def _fault_axes(self) -> List[tuple]:
        """``(axis_name, values)`` for every swept fault field, in order."""
        axes = []
        for index, entry in enumerate(self.faults):
            for field_name in SWEEPABLE_FAULT_FIELDS:
                value = entry.get(field_name)
                if isinstance(value, list):
                    axes.append((f"fault{index}.{field_name}", value))
        return axes

    def grid_size(self) -> int:
        """Total run count, without materialising the manifests.

        Kept arithmetically in sync with :meth:`expand` (tested against it),
        so banners can print counts for huge campaigns at no cost.
        """
        size = self.repeats * max(1, self.cohort_size)
        for axis in self.sweep_axes():
            if axis in self.parameters:
                size *= len(self.parameters[axis])
        for _axis, values in self._fault_axes():
            size *= len(values)
        return size

    def _compiled_fault_plan(self, bound: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Resolve the faults block against one grid point's bound axes."""
        from repro.sim.faults import FaultSpec

        plan: List[Dict[str, Any]] = []
        for index, entry in enumerate(self.faults):
            resolved = dict(entry)
            for field_name in SWEEPABLE_FAULT_FIELDS:
                axis = f"fault{index}.{field_name}"
                if axis in bound:
                    resolved[field_name] = bound[axis]
            try:
                plan.append(FaultSpec.from_dict(resolved).as_dict())
            except ValueError as error:
                raise CampaignError(
                    f"faults[{index}] does not compile: {error}"
                ) from error
        return plan

    def expand(self) -> List[RunManifest]:
        """Expand into the full, deterministically ordered run list."""
        self.validate()
        scenario = get_scenario(self.scenario)
        axes = self.sweep_axes()
        fixed = {
            key: value
            for key, value in self.parameters.items()
            if not isinstance(value, list)
        }
        fault_axes = dict(self._fault_axes())
        grids = [
            self.parameters[axis] if axis in self.parameters
            else fault_axes[axis]
            for axis in axes
        ]
        patient_indices: List[Optional[int]] = (
            list(range(self.cohort_size)) if self.cohort_size > 0 else [None]
        )
        cohort_seed = derive_seed(self.base_seed, f"campaign:{self.name}:cohort")

        manifests: List[RunManifest] = []
        for point in itertools.product(*grids) if grids else [()]:
            bound = dict(zip(axes, point))
            fault_plan = (
                self._compiled_fault_plan(bound) if self.faults else None
            )
            for patient_index in patient_indices:
                for repeat in range(self.repeats):
                    params = dict(fixed)
                    params.update(bound)
                    if fault_plan is not None:
                        params["fault_plan"] = fault_plan
                    id_parts = [f"{axis}={axis_id_value(bound[axis])}"
                                for axis in axes]
                    if patient_index is not None:
                        params["patient_index"] = patient_index
                        params["cohort_seed"] = cohort_seed
                        id_parts.append(f"patient={patient_index:03d}")
                    if self.repeats > 1:
                        params["repeat"] = repeat
                    id_parts.append(f"rep={repeat}")
                    run_id = "&".join(id_parts)
                    resolved = scenario.resolved_params(params)
                    manifests.append(
                        RunManifest(
                            run_index=len(manifests),
                            run_id=run_id,
                            scenario=self.scenario,
                            params=resolved,
                            seed=derive_seed(self.base_seed, f"run:{run_id}"),
                        )
                    )
        seen: Dict[str, int] = {}
        for manifest in manifests:
            if manifest.run_id in seen:
                # Identical run ids mean identical seeds: the "independent"
                # samples would be perfectly correlated copies.
                raise CampaignError(
                    f"duplicate run id {manifest.run_id!r} (runs "
                    f"{seen[manifest.run_id]} and {manifest.run_index}); "
                    "remove duplicate sweep values, or use repeats for replication"
                )
            seen[manifest.run_id] = manifest.run_index
        return manifests

    # ----------------------------------------------------------- persistence
    def as_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "scenario": self.scenario,
            "parameters": self.parameters,
            "cohort_size": self.cohort_size,
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "description": self.description,
        }
        if self.faults:
            # Only emitted when present, so manifests of fault-less campaigns
            # are byte-identical to those written before faults existed.
            data["faults"] = self.faults
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError(
                f"campaign spec must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise CampaignError(f"unknown campaign spec fields: {unknown}")
        if "name" not in data or "scenario" not in data:
            raise CampaignError("campaign spec requires 'name' and 'scenario'")
        spec = cls(**dict(data))
        spec._validate_types()
        return spec

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except OSError as error:
            raise CampaignError(f"cannot read campaign spec {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise CampaignError(f"campaign spec {path} is not valid JSON: {error}") from error


def cohort_patient(
    cohort_seed: int,
    index: int,
    *,
    sensitive_fraction: float = 0.15,
    athlete_fraction: float = 0.1,
):
    """Deterministically materialise patient ``index`` of a campaign cohort.

    Each patient is sampled from its own derived stream, so patient ``i`` is
    identical across configurations, workers, and resumes — campaigns compare
    configurations on *paired* populations, and materialising one patient
    never requires sampling the ones before it.
    """
    from repro.patient.population import PatientPopulation

    rng = np.random.default_rng(derive_seed(cohort_seed, f"patient:{index}"))
    population = PatientPopulation(rng=rng)
    patient = population.sample(
        1,
        prefix="cohort",
        sensitive_fraction=sensitive_fraction,
        athlete_fraction=athlete_fraction,
    )[0]
    return replace(patient, patient_id=f"patient-{index:03d}")


def patient_from_params(
    params: Mapping[str, Any],
    *,
    sensitive_fraction: float = 0.15,
    athlete_fraction: float = 0.1,
):
    """The patient a cohort-capable runner should simulate for ``params``.

    Resolves the engine-injected ``patient_index`` / ``cohort_seed`` auto
    params to a :func:`cohort_patient`, or falls back to the default patient
    for cohort-less campaigns.
    """
    from repro.patient.population import DEFAULT_PATIENT

    if params.get("patient_index") is None:
        return DEFAULT_PATIENT
    return cohort_patient(
        params["cohort_seed"],
        params["patient_index"],
        sensitive_fraction=sensitive_fraction,
        athlete_fraction=athlete_fraction,
    )
