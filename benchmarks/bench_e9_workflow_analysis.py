"""E9: static analysis of executable clinical workflows (Sections III(e), III(f)).

Starts from the clean closed-loop PCA scenario specification and seeds a
corpus of defective variants (dangling transitions, missing outcome coverage,
undeclared roles, unpublishable data flows, unsatisfiable device
requirements).  The bench reports how many seeded defects the static analysis
finds, per defect class, and the analysis runtime per scenario.
"""

import copy

from conftest import emit

from repro.analysis.tables import Table
from repro.devices.base import DeviceDescriptor
from repro.middleware.registry import DeviceRegistry
from repro.scenarios.pca_scenario import PCA_OUTCOME_ALPHABET, build_pca_scenario_spec
from repro.workflow.analysis import analyse_scenario, errors
from repro.workflow.spec import DataFlow, DecisionRule, ProcedureStep


def _registry(complete=True):
    registry = DeviceRegistry()
    registry.register(DeviceDescriptor(device_id="pump-1", device_type="pca_pump",
                                       published_topics=("pump_status",),
                                       accepted_commands=("stop", "resume")))
    registry.register(DeviceDescriptor(device_id="ox-1", device_type="pulse_oximeter",
                                       published_topics=("spo2", "heart_rate")))
    if complete:
        registry.register(DeviceDescriptor(device_id="cap-1", device_type="capnograph",
                                           published_topics=("respiratory_rate",)))
    return registry


def _seed_defects():
    """Return (name, scenario, alphabet, registry, expected_category) variants."""
    variants = []

    clean = build_pca_scenario_spec()
    variants.append(("clean", clean, PCA_OUTCOME_ALPHABET, _registry(), None))

    dangling = build_pca_scenario_spec()
    dangling.procedure.append(ProcedureStep(step_id="cleanup", role="nurse", action="x",
                                            next_steps={"ok": "does_not_exist"}))
    variants.append(("dangling_transition", dangling, PCA_OUTCOME_ALPHABET, _registry(),
                     "dangling_transition"))

    uncovered = build_pca_scenario_spec()
    alphabet = dict(PCA_OUTCOME_ALPHABET)
    alphabet["attach_sensors"] = ["ok", "sensor_fault", "patient_refuses"]
    variants.append(("uncovered_outcome", uncovered, alphabet, _registry(), "unhandled_outcome"))

    bad_role = build_pca_scenario_spec()
    bad_role.procedure.append(ProcedureStep(step_id="consult", role="surgeon", action="consult",
                                            next_steps={}))
    variants.append(("undeclared_role", bad_role, PCA_OUTCOME_ALPHABET, _registry(),
                     "undeclared_caregiver_role"))

    bad_flow = build_pca_scenario_spec()
    bad_flow.data_flows.append(DataFlow(source_role="spo2_source", topic="etco2",
                                        destination_role="supervisor"))
    variants.append(("unpublished_flow", bad_flow, PCA_OUTCOME_ALPHABET, _registry(),
                     "flow_topic_not_published"))

    bad_rule = build_pca_scenario_spec()
    bad_rule.decision_rules.append(DecisionRule(name="hold_breath", condition=lambda obs: False,
                                                target_role="spo2_source", command="pause"))
    variants.append(("rule_without_command", bad_rule, PCA_OUTCOME_ALPHABET, _registry(),
                     "rule_command_not_required"))

    undeployable = build_pca_scenario_spec()
    variants.append(("missing_capnograph_device", undeployable, PCA_OUTCOME_ALPHABET,
                     _registry(complete=False), "unsatisfiable_device_requirement"))
    return variants


def test_e9_workflow_analysis():
    variants = _seed_defects()

    def _analyse_all():
        return [
            (name, analyse_scenario(scenario, outcome_alphabet=alphabet, registry=registry), expected)
            for name, scenario, alphabet, registry, expected in variants
        ]

    analysed = _analyse_all()

    table = Table(
        "E9: static workflow analysis on a defect-seeded scenario corpus",
        ["variant", "findings", "errors", "seeded_defect_found"],
        notes="the clean scenario should produce zero errors; every seeded defect class should be caught",
    )
    caught = 0
    seeded = 0
    for name, findings, expected in analysed:
        found = expected is not None and any(f.category == expected for f in findings)
        if expected is not None:
            seeded += 1
            caught += 1 if found else 0
        table.add_row(name, len(findings), len(errors(findings)), found if expected else "n/a")
    emit(table)

    clean_findings = analysed[0][1]
    assert errors(clean_findings) == []
    assert caught == seeded
