"""Tests for the clinical workflow language, semantics, analysis, and compiler."""

import pytest

from repro.devices.base import DeviceDescriptor
from repro.middleware.bus import BusConfig, DeviceBus
from repro.middleware.registry import DeviceRegistry
from repro.middleware.supervisor_host import SupervisorHost
from repro.readings import Reading
from repro.scenarios.pca_scenario import PCA_OUTCOME_ALPHABET, build_pca_scenario_spec
from repro.sim.kernel import Simulator
from repro.workflow.analysis import analyse_scenario, errors
from repro.workflow.compiler import compile_scenario, device_requirements
from repro.workflow.semantics import ScenarioInterpreter, StepStatus
from repro.workflow.spec import (
    CaregiverRole,
    ClinicalScenario,
    DataFlow,
    DecisionRule,
    DeviceRole,
    ProcedureStep,
)


@pytest.fixture
def pca_spec():
    return build_pca_scenario_spec()


class TestScenarioSpec:
    def test_pca_spec_contains_all_elements(self, pca_spec):
        assert pca_spec.device_roles and pca_spec.data_flows
        assert pca_spec.caregiver_roles and pca_spec.procedure and pca_spec.decision_rules

    def test_accessors(self, pca_spec):
        assert pca_spec.device_role("analgesia_pump").device_type == "pca_pump"
        assert pca_spec.caregiver_role("nurse")
        assert pca_spec.step("program_pump").role == "nurse"
        with pytest.raises(KeyError):
            pca_spec.device_role("missing")
        with pytest.raises(KeyError):
            pca_spec.step("missing")

    def test_initial_steps(self, pca_spec):
        assert [step.step_id for step in pca_spec.initial_steps()] == ["verify_prescription"]

    def test_decision_rules_sorted_by_priority(self, pca_spec):
        priorities = [rule.priority for rule in pca_spec.sorted_decision_rules()]
        assert priorities == sorted(priorities, reverse=True)

    def test_topics_consumed(self, pca_spec):
        assert "spo2" in pca_spec.topics_consumed

    def test_data_flow_timing_validation(self):
        with pytest.raises(ValueError):
            DataFlow(source_role="a", topic="t", destination_role="b", max_latency_s=0.0)


class TestSemantics:
    def test_happy_path_completes(self, pca_spec):
        interpreter = ScenarioInterpreter(
            pca_spec,
            outcome_oracle=lambda step: {"monitor": "shift_end"}.get(step.step_id, "ok"),
        )
        result = interpreter.run()
        assert result.completed
        assert result.visited_step_ids[0] == "verify_prescription"
        assert result.visited_step_ids[-1] == "handover"
        assert result.total_duration_s > 0

    def test_unhandled_outcome_reported(self, pca_spec):
        interpreter = ScenarioInterpreter(
            pca_spec, outcome_oracle=lambda step: "earthquake"
        )
        result = interpreter.run()
        assert not result.completed
        assert "do not cover" in result.error
        assert result.steps[-1].status == StepStatus.UNHANDLED_OUTCOME

    def test_alarm_path_through_assessment(self, pca_spec):
        outcomes = {"monitor": "alarm", "assess_patient": "discontinue"}
        interpreter = ScenarioInterpreter(
            pca_spec, outcome_oracle=lambda step: outcomes.get(step.step_id, "ok")
        )
        result = interpreter.run()
        assert result.completed
        assert "assess_patient" in result.visited_step_ids

    def test_non_terminating_loop_detected(self, pca_spec):
        # Always looping between monitor/assess_patient without terminating.
        outcomes = {"monitor": "alarm", "assess_patient": "resume"}
        interpreter = ScenarioInterpreter(
            pca_spec, outcome_oracle=lambda step: outcomes.get(step.step_id, "ok"), max_steps=30
        )
        result = interpreter.run()
        assert not result.completed
        assert "did not terminate" in result.error

    def test_missing_initial_step_error(self):
        scenario = ClinicalScenario(name="empty", procedure=[
            ProcedureStep(step_id="a", role="nurse", action="do", next_steps={})
        ])
        result = ScenarioInterpreter(scenario).run()
        assert not result.completed
        assert "no initial" in result.error

    def test_explore_all_outcomes(self, pca_spec):
        interpreter = ScenarioInterpreter(pca_spec)
        results = interpreter.explore_all_outcomes({"verify_prescription": ["ok", "mismatch"]})
        assert len(results) == 2


class TestAnalysis:
    def test_clean_scenario_has_no_errors(self, pca_spec):
        findings = analyse_scenario(pca_spec, outcome_alphabet=PCA_OUTCOME_ALPHABET)
        assert errors(findings) == []

    def test_dangling_transition_detected(self, pca_spec):
        pca_spec.procedure.append(
            ProcedureStep(step_id="extra", role="nurse", action="x", next_steps={"ok": "nowhere"})
        )
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "dangling_transition" for f in findings)

    def test_unreachable_step_detected(self, pca_spec):
        pca_spec.procedure.append(
            ProcedureStep(step_id="orphan", role="nurse", action="x", next_steps={})
        )
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "unreachable_step" for f in findings)

    def test_missing_outcome_coverage_detected(self, pca_spec):
        alphabet = dict(PCA_OUTCOME_ALPHABET)
        alphabet["program_pump"] = ["ok", "programming_error", "power_failure"]
        findings = analyse_scenario(pca_spec, outcome_alphabet=alphabet)
        unhandled = [f for f in findings if f.category == "unhandled_outcome"]
        assert unhandled and unhandled[0].subject == "program_pump"

    def test_undeclared_caregiver_role_detected(self, pca_spec):
        pca_spec.procedure.append(
            ProcedureStep(step_id="x1", role="surgeon", action="operate", next_steps={})
        )
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "undeclared_caregiver_role" for f in findings)

    def test_idle_caregiver_role_warned(self, pca_spec):
        pca_spec.caregiver_roles.append(CaregiverRole(role="anesthesiologist"))
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "idle_caregiver_role" for f in findings)

    def test_flow_topic_not_published_detected(self, pca_spec):
        pca_spec.data_flows.append(
            DataFlow(source_role="analgesia_pump", topic="etco2", destination_role="supervisor")
        )
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "flow_topic_not_published" for f in findings)

    def test_rule_command_not_required_detected(self, pca_spec):
        pca_spec.decision_rules.append(
            DecisionRule(name="bad", condition=lambda obs: False, target_role="spo2_source",
                         command="stop")
        )
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "rule_command_not_required" for f in findings)

    def test_multiple_initial_steps_detected(self, pca_spec):
        pca_spec.procedure.append(
            ProcedureStep(step_id="second_start", role="nurse", action="x", next_steps={},
                          is_initial=True)
        )
        findings = analyse_scenario(pca_spec)
        assert any(f.category == "multiple_initial_steps" for f in findings)

    def test_deployability_against_registry(self, pca_spec):
        registry = DeviceRegistry()
        findings = analyse_scenario(pca_spec, registry=registry)
        assert any(f.category == "unsatisfiable_device_requirement" for f in findings)
        registry.register(DeviceDescriptor(
            device_id="pump-1", device_type="pca_pump", published_topics=("pump_status",),
            accepted_commands=("stop", "resume")))
        registry.register(DeviceDescriptor(
            device_id="ox-1", device_type="pulse_oximeter", published_topics=("spo2", "heart_rate")))
        registry.register(DeviceDescriptor(
            device_id="cap-1", device_type="capnograph", published_topics=("respiratory_rate",)))
        findings = analyse_scenario(pca_spec, registry=registry)
        assert not any(f.category == "unsatisfiable_device_requirement" for f in findings)


class TestCompiler:
    def test_device_requirements_generated(self, pca_spec):
        requirements = device_requirements(pca_spec)
        roles = {r.role for r in requirements}
        assert {"analgesia_pump", "spo2_source", "respiration_source"} <= roles

    def test_compile_requires_assignments_for_rule_targets(self, pca_spec):
        with pytest.raises(ValueError):
            compile_scenario(pca_spec, role_assignments={"spo2_source": "ox-1"})

    def test_compiled_app_fires_rule_and_commands_device(self, pca_spec):
        from repro.devices.pca_pump import PCAPump
        from repro.devices.pulse_oximeter import PulseOximeter
        from repro.devices.capnograph import Capnograph
        from repro.patient.model import PatientModel

        simulator = Simulator()
        patient = PatientModel()
        simulator.register(patient)
        bus = DeviceBus(simulator, BusConfig())
        pump = PCAPump("pump-1", patient, command_delay_s=0.5)
        oximeter = PulseOximeter("ox-1", patient)
        capnograph = Capnograph("cap-1", patient)
        for device in (pump, oximeter, capnograph):
            bus.attach_device(device)
            simulator.register(device)
        host = SupervisorHost(bus, algorithm_delay_s=0.05)
        app = compile_scenario(pca_spec, {
            "analgesia_pump": "pump-1", "spo2_source": "ox-1", "respiration_source": "cap-1",
        })
        host.attach_app(app)
        simulator.register(host)

        # Drive the patient into respiratory depression so the rules fire.
        patient.infuse_bolus(20.0)
        simulator.run(until=30 * 60.0)
        assert app.fired_rules, "a decision rule should have fired"
        assert pump.stopped_by_supervisor

    def test_compiled_app_does_not_fire_without_cause(self, pca_spec):
        from repro.devices.pca_pump import PCAPump
        from repro.devices.pulse_oximeter import PulseOximeter
        from repro.devices.capnograph import Capnograph
        from repro.patient.model import PatientModel

        simulator = Simulator()
        patient = PatientModel()
        simulator.register(patient)
        bus = DeviceBus(simulator, BusConfig())
        pump = PCAPump("pump-1", patient)
        oximeter = PulseOximeter("ox-1", patient)
        capnograph = Capnograph("cap-1", patient)
        for device in (pump, oximeter, capnograph):
            bus.attach_device(device)
            simulator.register(device)
        host = SupervisorHost(bus)
        app = compile_scenario(pca_spec, {
            "analgesia_pump": "pump-1", "spo2_source": "ox-1", "respiration_source": "cap-1",
        })
        host.attach_app(app)
        simulator.register(host)
        simulator.run(until=10 * 60.0)
        assert app.fired_rules == []
        assert not pump.stopped_by_supervisor

    def test_compiled_app_observations_tracked(self, pca_spec):
        app = compile_scenario(pca_spec, {
            "analgesia_pump": "p", "spo2_source": "o", "respiration_source": "c",
        })

        class _Message:
            sent_at = 0.0
            delivered_at = 0.1

        app.on_data("spo2", Reading(97.0, True, 0.0), _Message())
        app.on_data("spo2", Reading(50.0, False, 0.0), _Message())
        assert app.observations == {"spo2": 97.0}

    def test_compiled_app_tracks_valid_readings(self, pca_spec):
        # Every delivery is a Reading; only a valid one is an observation.
        # A status is a sample like any other: its coded value is observed.
        app = compile_scenario(pca_spec, {
            "analgesia_pump": "p", "spo2_source": "o", "respiration_source": "c",
        })

        class _Message:
            sent_at = 0.0
            delivered_at = 0.1

        message = _Message()
        app.on_data("spo2", Reading(96.0, True, 1.0), message)
        assert app.observations == {"spo2": 96.0}
        app.on_data("spo2", Reading(40.0, False, 2.0), message)  # invalid: kept out
        assert app.observations == {"spo2": 96.0}
        app.on_data("pump_status", Reading(1.0, True, 3.0), message)  # stopped
        assert app.observations == {"spo2": 96.0, "pump_status": 1.0}
