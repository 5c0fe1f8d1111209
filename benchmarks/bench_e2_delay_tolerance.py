"""E2: control-loop delay and communication-failure tolerance.

The paper (Section II(c), Figure 1) requires the supervisor to account for
every delay source in the loop and to tolerate communication failures.  This
bench sweeps (a) the pump-stop command delay and (b) the length of an
oximeter-uplink outage, and reports how patient safety degrades -- showing the
margin the fail-safe (stop on stale data) behaviour buys.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.population import PatientPopulation
from repro.sim.faults import FaultSpec

DURATION_S = 2.0 * 3600.0
PUMP_DELAYS_S = (0.5, 2.0, 10.0, 30.0)
OUTAGE_DURATIONS_S = (0.0, 60.0, 600.0, 1800.0)


def _patient():
    return PatientPopulation(seed=31).sample_one("e2-patient", sensitive=True)


def _run_pump_delay(delay_s):
    prescription = PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                   hourly_limit_mg=12.0, basal_rate_mg_per_hr=2.0)
    faults = [FaultSpec(kind="misprogramming", start=900.0, target="pca-pump-1",
                        parameters={"rate_multiplier": 5.0})]
    config = PCASystemConfig(mode="closed_loop", duration_s=DURATION_S, patient=_patient(),
                             prescription=prescription, pump_command_delay_s=delay_s,
                             faults=faults, seed=42)
    return ClosedLoopPCASystem(config).run()


def _run_outage(duration_s):
    prescription = PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                   hourly_limit_mg=12.0, basal_rate_mg_per_hr=2.0)
    faults = []
    if duration_s > 0:
        faults.append(FaultSpec(kind="channel_outage", start=1800.0, duration=duration_s,
                                target="uplink:pulse-ox-1"))
    config = PCASystemConfig(mode="closed_loop", duration_s=DURATION_S, patient=_patient(),
                             prescription=prescription, faults=faults, seed=42)
    system = ClosedLoopPCASystem(config)
    result = system.run()
    fail_safe_stops = sum(1 for event in system.supervisor.events if "stale" in event.reason)
    return result, fail_safe_stops


def test_e2_delay_and_outage_tolerance():
    def _sweep():
        pump_rows = [(delay, _run_pump_delay(delay)) for delay in PUMP_DELAYS_S]
        outage_rows = [(duration, _run_outage(duration)) for duration in OUTAGE_DURATIONS_S]
        return pump_rows, outage_rows

    pump_rows, outage_rows = _sweep()

    delay_table = Table("E2a: pump-stop delay sweep (misprogrammed basal rate)",
                        ["pump_stop_delay_s", "min_spo2", "time_spo2<90 (s)", "harmed"])
    for delay, result in pump_rows:
        delay_table.add_row(delay, result.min_spo2, result.time_below_spo2_90_s, result.harmed)
    emit(delay_table)

    outage_table = Table("E2b: oximeter-uplink outage sweep (fail-safe on stale data)",
                         ["outage_s", "fail_safe_stops", "min_spo2", "harmed"])
    for duration, (result, fail_safe_stops) in outage_rows:
        outage_table.add_row(duration, fail_safe_stops, result.min_spo2, result.harmed)
    emit(outage_table)

    # Shape: longer pump-stop delays cannot make the patient safer.
    min_spo2s = [result.min_spo2 for _, result in pump_rows]
    assert min_spo2s[0] >= min_spo2s[-1] - 1.0
    # Outages trigger fail-safe stops rather than harm.
    assert all(not result.harmed for _, (result, _) in outage_rows)
    assert outage_rows[-1][1][1] >= 1
