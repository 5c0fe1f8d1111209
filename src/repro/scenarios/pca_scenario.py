"""Declarative specification and fault workloads for the closed-loop PCA scenario.

This module complements :mod:`repro.core.loop` (which wires the executable
system) with the *declarative* scenario description of Section III(e) -- the
artefact that the workflow analysis, device matching, and scenario
compilation operate on -- and with the standard fault campaign used by
experiment E1.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.campaign.registry import CampaignError, campaign_scenario
from repro.campaign.spec import patient_from_params
from repro.core.loop import MODES, ClosedLoopPCASystem, PCASystemConfig
from repro.core.pca import POLICIES, RESPIRATORY_RATE_STOP_THRESHOLD, SPO2_STOP_THRESHOLD
from repro.devices.pca_pump import PCAPrescription
from repro.sim.faults import FaultSpec, fault_plan_specs
from repro.workflow.spec import (
    CaregiverRole,
    ClinicalScenario,
    DataFlow,
    DecisionRule,
    DeviceRole,
    ProcedureStep,
)


def build_pca_scenario_spec() -> ClinicalScenario:
    """The closed-loop PCA safety scenario as a clinical workflow specification.

    Its decision rules stop the pump at the supervisor's own thresholds
    (:mod:`repro.core.pca`).
    """
    device_roles = [
        DeviceRole(
            role="analgesia_pump",
            device_type="pca_pump",
            required_topics=("pump_status",),
            required_commands=("stop", "resume"),
            description="PCA pump delivering opioid boluses on patient demand",
        ),
        DeviceRole(
            role="spo2_source",
            device_type="pulse_oximeter",
            required_topics=("spo2", "heart_rate"),
            description="pulse oximeter on the patient's finger",
        ),
        DeviceRole(
            role="respiration_source",
            device_type="capnograph",
            required_topics=("respiratory_rate",),
            description="capnograph measuring respiratory rate",
        ),
    ]
    data_flows = [
        DataFlow(source_role="spo2_source", topic="spo2", destination_role="supervisor",
                 max_latency_s=1.0, max_period_s=5.0),
        DataFlow(source_role="spo2_source", topic="heart_rate", destination_role="supervisor",
                 max_latency_s=1.0, max_period_s=5.0),
        DataFlow(source_role="analgesia_pump", topic="pump_status", destination_role="supervisor",
                 max_latency_s=2.0, max_period_s=20.0),
        DataFlow(source_role="respiration_source", topic="respiratory_rate",
                 destination_role="supervisor", max_latency_s=1.0, max_period_s=10.0),
    ]
    decision_rules = [
        DecisionRule(
            name="stop_on_desaturation",
            condition=lambda obs: obs["spo2"] < SPO2_STOP_THRESHOLD,
            target_role="analgesia_pump",
            command="stop",
            priority=10,
            description="stop the infusion when SpO2 falls below the safety threshold",
        ),
        DecisionRule(
            name="stop_on_hypoventilation",
            condition=lambda obs: obs["respiratory_rate"] < RESPIRATORY_RATE_STOP_THRESHOLD,
            target_role="analgesia_pump",
            command="stop",
            priority=9,
            description="stop the infusion when the respiratory rate collapses",
        ),
    ]

    caregiver_roles = [
        CaregiverRole(
            role="nurse",
            description="ward nurse responsible for the patient",
            responsibilities=("programme the pump", "respond to supervisor alarms"),
        ),
        CaregiverRole(
            role="pharmacist",
            description="prepares and labels the opioid syringe",
            responsibilities=("verify drug concentration",),
        ),
    ]
    procedure = [
        ProcedureStep(
            step_id="verify_prescription",
            role="pharmacist",
            action="verify the prescription and syringe concentration",
            next_steps={"ok": "program_pump", "mismatch": "escalate_pharmacy"},
            is_initial=True,
            expected_duration_s=180.0,
        ),
        ProcedureStep(
            step_id="escalate_pharmacy",
            role="pharmacist",
            action="return the syringe to the pharmacy and obtain a corrected one",
            next_steps={"ok": "verify_prescription"},
            expected_duration_s=900.0,
        ),
        ProcedureStep(
            step_id="program_pump",
            role="nurse",
            action="programme bolus dose, lockout, and hourly limit into the pump",
            next_steps={"ok": "attach_sensors", "programming_error": "program_pump"},
            expected_duration_s=240.0,
        ),
        ProcedureStep(
            step_id="attach_sensors",
            role="nurse",
            action="attach pulse oximeter (and capnograph) to the patient",
            next_steps={"ok": "start_infusion", "sensor_fault": "replace_sensor"},
            expected_duration_s=120.0,
        ),
        ProcedureStep(
            step_id="replace_sensor",
            role="nurse",
            action="replace the faulty sensor",
            next_steps={"ok": "attach_sensors"},
            expected_duration_s=300.0,
        ),
        ProcedureStep(
            step_id="start_infusion",
            role="nurse",
            action="start the PCA infusion and verify supervisor connectivity",
            next_steps={"ok": "monitor", "no_connectivity": "troubleshoot_network"},
            expected_duration_s=120.0,
        ),
        ProcedureStep(
            step_id="troubleshoot_network",
            role="nurse",
            action="re-establish the device network connection or revert to open-loop monitoring",
            next_steps={"ok": "start_infusion", "unresolved": "revert_open_loop"},
            expected_duration_s=600.0,
        ),
        ProcedureStep(
            step_id="revert_open_loop",
            role="nurse",
            action="document reversion to standard monitoring and increase rounding frequency",
            next_steps={},
            expected_duration_s=120.0,
        ),
        ProcedureStep(
            step_id="monitor",
            role="nurse",
            action="respond to supervisor alarms; assess the patient at every alarm",
            next_steps={"alarm": "assess_patient", "shift_end": "handover"},
            expected_duration_s=1800.0,
        ),
        ProcedureStep(
            step_id="assess_patient",
            role="nurse",
            action="assess sedation and respiration; resume or discontinue therapy",
            next_steps={"resume": "monitor", "discontinue": "handover"},
            expected_duration_s=300.0,
        ),
        ProcedureStep(
            step_id="handover",
            role="nurse",
            action="hand the patient over to the next shift with the PCA status",
            next_steps={},
            expected_duration_s=300.0,
        ),
    ]

    return ClinicalScenario(
        name="closed_loop_pca",
        description="Closed-loop patient-controlled analgesia with a safety supervisor (Figure 1)",
        device_roles=device_roles,
        data_flows=data_flows,
        caregiver_roles=caregiver_roles,
        procedure=procedure,
        decision_rules=decision_rules,
    )


#: The per-step outcome alphabet used when analysing the PCA procedure for
#: coverage (experiment E9 seeds defects by deleting transitions from it).
PCA_OUTCOME_ALPHABET: Dict[str, List[str]] = {
    "verify_prescription": ["ok", "mismatch"],
    "program_pump": ["ok", "programming_error"],
    "attach_sensors": ["ok", "sensor_fault"],
    "start_infusion": ["ok", "no_connectivity"],
    "troubleshoot_network": ["ok", "unresolved"],
    "monitor": ["alarm", "shift_end"],
    "assess_patient": ["resume", "discontinue"],
}


def pca_fault_campaign(
    *,
    misprogramming_rate_multiplier: float = 4.0,
    misprogramming_time_s: float = 1800.0,
    proxy_press_time_s: float = 3600.0,
    proxy_press_count: int = 6,
    include_communication_outage: bool = False,
    outage_start_s: float = 5400.0,
    outage_duration_s: float = 600.0,
) -> List[FaultSpec]:
    """The standard fault workload of experiment E1.

    Combines the adverse-event causes the paper enumerates: misprogramming
    (wrong rate), PCA-by-proxy (someone else pressing the button), and --
    optionally -- a communication outage on the oximeter uplink that the
    supervisor must fail safe on.
    """
    faults = [
        FaultSpec(
            kind="misprogramming",
            start=misprogramming_time_s,
            target="pca-pump-1",
            parameters={"rate_multiplier": misprogramming_rate_multiplier},
        ),
        FaultSpec(
            kind="pca_by_proxy",
            start=proxy_press_time_s,
            target="pca-pump-1",
            parameters={"count": proxy_press_count},
        ),
    ]
    if include_communication_outage:
        faults.append(
            FaultSpec(
                kind="channel_outage",
                start=outage_start_s,
                duration=outage_duration_s,
                target="uplink:pulse-ox-1",
            )
        )
    return faults


# --------------------------------------------------------------- campaigns
#: Campaign parameters that program the pump (:class:`PCAPrescription`).
_PRESCRIPTION_PARAMS = ("bolus_dose_mg", "lockout_interval_s", "hourly_limit_mg",
                        "basal_rate_mg_per_hr")
#: Fault workloads the ``faults`` parameter names (see :func:`pca_fault_campaign`).
FAULT_PRESETS = ("none", "standard", "standard+outage")


def _validate_pca_campaign(spec) -> None:
    """Reject spec shapes that would silently mislead or fail (caught before any run)."""
    for key, allowed in (("mode", MODES), ("policy", POLICIES), ("faults", FAULT_PRESETS)):
        value = spec.parameters.get(key, [])
        for candidate in value if isinstance(value, list) else (value,):
            if candidate not in allowed:
                raise CampaignError(
                    f"parameter {key!r} must be one of {allowed}, got {candidate!r}"
                )
    for key in _PRESCRIPTION_PARAMS:
        value = spec.parameters.get(key)
        for candidate in value if isinstance(value, list) else (value,):
            if isinstance(candidate, float) and not math.isfinite(candidate):
                raise CampaignError(
                    f"prescription parameter {key!r} must be finite, got {candidate!r}"
                )
    periods = spec.parameters.get("button_press_period_s", [])
    for period in periods if isinstance(periods, list) else (periods,):
        if (isinstance(period, bool) or not isinstance(period, (int, float))
                or not (math.isfinite(period) and period > 0)):
            raise CampaignError(
                f"parameter 'button_press_period_s' must be a finite positive number, got {period!r}"
            )
    if spec.cohort_size > 0:
        return
    shaped = [key for key in ("sensitive_fraction", "athlete_fraction")
              if key in spec.parameters]
    if shaped:
        raise CampaignError(
            f"{shaped} shape the sampled cohort and have no effect without "
            "one; set cohort_size > 0 in the campaign spec"
        )


@campaign_scenario(
    "pca",
    defaults={
        "mode": "closed_loop",
        "policy": "fused",
        "duration_s": 3.0 * 3600.0,
        "with_capnograph": True,
        "bolus_dose_mg": 1.5,
        "lockout_interval_s": 300.0,
        "hourly_limit_mg": 12.0,
        "basal_rate_mg_per_hr": 1.5,
        "button_press_period_s": 420.0,
        "faults": "none",
        "misprogramming_rate_multiplier": 4.0,
        "sensitive_fraction": 0.15,
        "athlete_fraction": 0.1,
    },
    result_fields=(
        "mode", "patient_id", "harmed", "respiratory_failure_events",
        "time_below_spo2_90_s", "min_spo2", "total_drug_delivered_mg",
        "mean_pain_level", "supervisor_stops",
    ),
    supports_cohort=True,
    supports_faults=True,
    description="Closed-loop PCA safety run over a patient cohort (experiment E1 at scale)",
    spec_validator=_validate_pca_campaign,
)
def run_pca_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign runner: one closed-/open-loop PCA encounter, fully seeded."""
    patient = patient_from_params(
        params,
        sensitive_fraction=params["sensitive_fraction"],
        athlete_fraction=params["athlete_fraction"],
    )

    preset = params["faults"]
    if preset == "none":
        faults: List[FaultSpec] = []
    elif preset == "standard":
        faults = pca_fault_campaign(
            misprogramming_rate_multiplier=params["misprogramming_rate_multiplier"]
        )
    elif preset == "standard+outage":
        faults = pca_fault_campaign(
            misprogramming_rate_multiplier=params["misprogramming_rate_multiplier"],
            include_communication_outage=True,
        )
    else:
        raise ValueError(f"unknown fault plan {preset!r}")
    # Declarative campaign faults (a spec's ``faults`` block compiles to the
    # engine-injected ``fault_plan`` param) compose with the preset above:
    # the paper's outage sweeps ride on top of any standard fault workload.
    faults = faults + fault_plan_specs(params.get("fault_plan", ()))

    config = PCASystemConfig(
        mode=params["mode"],
        duration_s=params["duration_s"],
        patient=patient,
        prescription=PCAPrescription(
            bolus_dose_mg=params["bolus_dose_mg"],
            lockout_interval_s=params["lockout_interval_s"],
            hourly_limit_mg=params["hourly_limit_mg"],
            basal_rate_mg_per_hr=params["basal_rate_mg_per_hr"],
        ),
        policy=params["policy"],
        with_capnograph=params["with_capnograph"],
        button_press_period_s=params["button_press_period_s"],
        faults=faults,
        seed=seed,
    )
    return ClosedLoopPCASystem(config).run().as_record()
