"""FIG1: the PCA control loop of Figure 1 and its delay budget.

Reproduces the structure of Figure 1: a single closed-loop PCA run showing
the loop reacting to a developing respiratory depression, plus the delay
budget table annotated in the figure (signal processing time, algorithm
processing time, pump stop delay, and the network terms the ICE middleware
adds).
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.core.delays import loop_delay_budget, max_additional_drug_during_reaction
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.population import PatientPopulation


def _run_control_loop():
    patient = PatientPopulation(seed=21).sample_one("fig1-patient", sensitive=True)
    prescription = PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                   hourly_limit_mg=12.0, basal_rate_mg_per_hr=2.0)
    config = PCASystemConfig(mode="closed_loop", duration_s=2.0 * 3600.0, patient=patient,
                             prescription=prescription, seed=7)
    system = ClosedLoopPCASystem(config)
    result = system.run()
    return system, result


def test_fig1_control_loop():
    system, result = _run_control_loop()

    budget = loop_delay_budget(
        sensor_sample_period_s=system.config.oximeter.sample_period_s,
        signal_processing_delay_s=system.config.oximeter.signal_processing_delay_s,
        uplink_latency_s=system.config.bus.uplink.latency_s,
        supervisor_step_period_s=system.supervisor.step_period_s,
        algorithm_delay_s=system.config.algorithm_delay_s,
        command_latency_s=system.config.bus.uplink.latency_s,
        pump_stop_delay_s=system.config.pump_command_delay_s,
    )
    table = Table("FIG1a: control-loop delay budget (Figure 1 annotations)",
                  ["component", "nominal_s", "worst_case_s"])
    for row in budget.as_rows():
        table.add_row(row["component"], row["nominal_s"], row["worst_case_s"])
    emit(table)

    extra_drug = max_additional_drug_during_reaction(
        budget, basal_rate_mg_per_hr=system.config.prescription.basal_rate_mg_per_hr,
        pending_bolus_mg=system.config.prescription.bolus_dose_mg)
    loop_table = Table("FIG1b: closed-loop run summary",
                       ["metric", "value"])
    loop_table.add_row("min SpO2 (%)", result.min_spo2)
    loop_table.add_row("supervisor stops", result.supervisor_stops)
    loop_table.add_row("supervisor resumes", result.supervisor_resumes)
    loop_table.add_row("boluses delivered", result.boluses_delivered)
    loop_table.add_row("worst-case reaction time (s)", budget.worst_case_total_s)
    loop_table.add_row("max drug during reaction (mg)", extra_drug)
    loop_table.add_row("respiratory failure events", result.respiratory_failure_events)
    emit(loop_table)

    assert result.respiratory_failure_events == 0
    assert budget.worst_case_total_s < 60.0
