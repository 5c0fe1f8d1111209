"""A supervisor command lost on the pump's link is never sent again.

The supervisor believes the pump stopped (or resumed) as soon as the host
hands the command to the bus, and nothing it receives contradicts that
belief.  Both runs are E1's set-up: its population and prescription,
patient 0 (seed 500) with its misprogramming and PCA-by-proxy faults,
closed loop, 3 h.  Fault-free, the supervisor stops the pump at 3,304.1 s
and first resumes it at 4,046.1 s.  A 3 s outage on ``uplink:pca-pump-1``
around either command loses it.
"""

from __future__ import annotations

import pytest

from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.population import PatientPopulation
from repro.scenarios.pca_scenario import pca_fault_campaign
from repro.sim.faults import FaultSpec

OUTAGE_S = 3.0
#: One pump status period, one supervisor step and one pump command delay:
#: how long after the outage a re-sent command may take to act.
RECOVERY_S = 10.0 + 2.0 + 1.0
ITEM_1 = ("ROADMAP item 1: the supervisor trusts the hand-off of a command, not the "
          "pump's status, so a command lost on the uplink is never re-sent")


def run_patient_0(outage_start):
    patient = PatientPopulation(seed=101).sample(8, sensitive_fraction=0.3)[0]
    outage = FaultSpec(kind="channel_outage", start=outage_start, duration=OUTAGE_S,
                       target="uplink:pca-pump-1")
    config = PCASystemConfig(
        mode="closed_loop", duration_s=3.0 * 3600.0, patient=patient,
        prescription=PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                     hourly_limit_mg=12.0, basal_rate_mg_per_hr=1.5),
        faults=pca_fault_campaign(misprogramming_rate_multiplier=4.0) + [outage], seed=500,
    )
    system = ClosedLoopPCASystem(config)
    return system, system.run()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_lost_stop_leaves_the_patient_unharmed():
    # Today: 2,645 s in respiratory failure, min SpO2 60.5, 13.56 mg
    # delivered against 10.43 mg without the outage.
    _, result = run_patient_0(3303.6)
    assert not result.harmed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_lost_resume_restarts_the_pump():
    # Today the pump stays stopped to the end: 4.76 mg delivered.
    start = 4045.6
    system, _ = run_patient_0(start)
    resumed = [event.time for event in system.trace.events("pca-pump-1:resumed_by_supervisor")]
    assert any(start < time <= start + OUTAGE_S + RECOVERY_S for time in resumed), resumed
