"""E7: security posture versus closed-loop capability (Section III(m)).

Runs a standard attack campaign (external reprogramming, replay, flooding,
and a compromised-insider attack) against the three network-command postures
-- open, allowlisted, data-only -- and simultaneously reports whether the
closed-loop PCA supervisor can still do its job under each posture.  This is
the paper's flexibility-versus-security balance as one table.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.population import PatientPopulation
from repro.security.attacks import AttackCampaign, standard_reprogramming_campaign
from repro.security.auth import DeviceAuthenticator
from repro.security.policy import (
    CommandAuthorizationPolicy,
    SecurityPosture,
    closed_loop_attack_surface,
)
from repro.sim.faults import FaultSpec

POSTURES = (SecurityPosture.OPEN, SecurityPosture.ALLOWLISTED, SecurityPosture.DATA_ONLY)
CRITICAL_COMMANDS = {("pca-pump-1", "resume"), ("pca-pump-1", "set_prescription")}


def _policy_for(posture):
    policy = CommandAuthorizationPolicy(posture=posture)
    policy.mark_authenticated("pca-safety")
    if posture == SecurityPosture.ALLOWLISTED:
        policy.allow_app_commands("pca-safety", "pca-pump-1", ["stop", "resume"])
    return policy


def _attack_outcomes(posture):
    authenticator = DeviceAuthenticator()
    credential = authenticator.provision("pca-safety-app", b"supervisor-key")
    policy = CommandAuthorizationPolicy(posture=posture)
    if posture == SecurityPosture.ALLOWLISTED:
        policy.allow_app_commands("pca-safety-app", "pca-pump-1", ["stop", "resume"])
    campaign = AttackCampaign(authenticator, policy,
                              stolen_credentials={"pca-safety-app": credential})
    campaign.run(standard_reprogramming_campaign())
    return campaign


def _closed_loop_effectiveness(posture):
    """Can the supervisor still protect the patient under this posture?"""
    patient = PatientPopulation(seed=61).sample_one("e7-patient", sensitive=True)
    prescription = PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                   hourly_limit_mg=12.0, basal_rate_mg_per_hr=2.0)
    faults = [FaultSpec(kind="misprogramming", start=900.0, target="pca-pump-1",
                        parameters={"rate_multiplier": 5.0})]
    config = PCASystemConfig(mode="closed_loop", duration_s=2.0 * 3600.0, patient=patient,
                             prescription=prescription, faults=faults, seed=3)
    system = ClosedLoopPCASystem(config)
    system.build()
    policy = _policy_for(posture)
    system.host._command_authoriser = policy.as_authoriser()
    system.simulator.run(until=config.duration_s)
    return system._collect(), policy


def test_e7_security_tradeoff():
    def _run_all():
        rows = []
        for posture in POSTURES:
            campaign = _attack_outcomes(posture)
            loop_result, policy = _closed_loop_effectiveness(posture)
            surface = closed_loop_attack_surface(policy, CRITICAL_COMMANDS)
            rows.append((posture, campaign, loop_result, surface))
        return rows

    rows = _run_all()

    table = Table(
        "E7: security posture vs attack success and closed-loop capability",
        ["posture", "attacks", "attacks_succeeded", "insider_surface",
         "supervisor_stops_issued", "patient_harmed"],
        notes="data_only blocks all attacks but also disables the closed loop; allowlisted keeps both",
    )
    by_posture = {}
    for posture, campaign, loop_result, surface in rows:
        succeeded = sum(1 for r in campaign.results if r.succeeded)
        by_posture[posture] = (succeeded, loop_result)
        table.add_row(posture.value, len(campaign.results), succeeded,
                      surface["insider_reachable_fraction"], loop_result.supervisor_stops,
                      loop_result.harmed)
    emit(table)

    # Shape: open admits the insider attack; data-only stops the supervisor from acting.
    assert by_posture[SecurityPosture.OPEN][0] >= by_posture[SecurityPosture.ALLOWLISTED][0]
    assert by_posture[SecurityPosture.DATA_ONLY][0] == 0
    assert by_posture[SecurityPosture.ALLOWLISTED][1].supervisor_stops >= 1
    assert by_posture[SecurityPosture.DATA_ONLY][1].supervisor_stops == 0
