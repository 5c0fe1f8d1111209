"""E1: closed-loop PCA safety versus open-loop PCA with programmable limits.

Reproduces the paper's central closed-loop claim (Section II(c), citing Arney
et al. [4]): a supervisor that monitors pulse-oximetry / capnography and stops
the infusion prevents the overdose-induced respiratory failures that
programmable pump limits alone do not, across a population that includes
opioid-sensitive patients, misprogramming, and PCA-by-proxy events.
"""

from conftest import emit

from repro.analysis.metrics import aggregate_outcomes
from repro.analysis.tables import Table
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.population import PatientPopulation
from repro.scenarios.pca_scenario import pca_fault_campaign

POPULATION_SIZE = 8
DURATION_S = 3.0 * 3600.0

MODES = ("open_loop", "open_loop_monitored", "closed_loop")
POLICIES = ("threshold", "fused")


def _population():
    return PatientPopulation(seed=101).sample(POPULATION_SIZE, sensitive_fraction=0.3)


def _run_mode(mode, policy="fused"):
    prescription = PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                   hourly_limit_mg=12.0, basal_rate_mg_per_hr=1.5)
    results = []
    for index, patient in enumerate(_population()):
        faults = pca_fault_campaign(misprogramming_rate_multiplier=4.0) if index % 2 == 0 else []
        config = PCASystemConfig(
            mode=mode, duration_s=DURATION_S, patient=patient, prescription=prescription,
            policy=policy, faults=faults, seed=500 + index,
        )
        results.append(ClosedLoopPCASystem(config).run())
    return results


def test_e1_pca_safety():
    all_results = {mode: _run_mode(mode) for mode in MODES}

    table = Table(
        "E1: PCA safety across a patient population (misprogramming + PCA-by-proxy faults)",
        ["configuration", "patients", "harmed", "harm_rate", "failure_events",
         "mean_time_spo2<90 (s)", "mean_drug (mg)", "mean_pain"],
        notes="closed_loop should drive harm to ~0 while preserving analgesia",
    )
    outcomes = {}
    for mode in MODES:
        outcome = aggregate_outcomes(all_results[mode])
        outcomes[mode] = outcome
        table.add_row(mode, outcome.patients, outcome.harmed, outcome.harm_rate,
                      outcome.respiratory_failure_events, outcome.mean_time_in_danger_s,
                      outcome.mean_drug_mg, outcome.mean_pain)
    emit(table)

    # Supervisor-policy ablation on the closed loop.
    ablation = Table("E1-ablation: supervisor policy", ["policy", "harmed", "mean_time_spo2<90 (s)"])
    for policy in POLICIES:
        outcome = aggregate_outcomes(_run_mode("closed_loop", policy=policy))
        ablation.add_row(policy, outcome.harmed, outcome.mean_time_in_danger_s)
    emit(ablation)

    # Paper-shape assertions: closed loop strictly safer than open loop.
    assert outcomes["closed_loop"].harmed <= outcomes["open_loop"].harmed
    assert outcomes["closed_loop"].mean_time_in_danger_s <= outcomes["open_loop"].mean_time_in_danger_s
