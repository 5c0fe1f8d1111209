"""E8: proton-therapy beam scheduling and safety interrupts (Section II(a)).

Sweeps the number of treatment rooms sharing the single cyclotron beam and
reports throughput (completed fractions, waiting times, beam utilisation) and
the interference between beam scheduling and beam application: fractions
aborted by patient-motion cut-offs, plus the effect of a facility emergency
shutdown.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.scenarios.proton import ProtonSchedulingConfig, ProtonSchedulingScenario

ROOM_COUNTS = (1, 2, 4)


def _sweep():
    rows = []
    for rooms in ROOM_COUNTS:
        config = ProtonSchedulingConfig(rooms=rooms, fractions_per_room=3, fraction_spots=200,
                                        spot_duration_s=0.5, request_period_s=400.0,
                                        motion_events_per_room=1, duration_s=2.0 * 3600.0, seed=5)
        rows.append(("scheduled", rooms, ProtonSchedulingScenario(config).run()))
    # Emergency shutdown case.
    shutdown_config = ProtonSchedulingConfig(rooms=3, fractions_per_room=3, fraction_spots=200,
                                             spot_duration_s=0.5, motion_events_per_room=0,
                                             emergency_shutdown_time_s=300.0,
                                             duration_s=2.0 * 3600.0, seed=5)
    rows.append(("emergency_shutdown@300s", 3, ProtonSchedulingScenario(shutdown_config).run()))
    return rows


def test_e8_proton_scheduling():
    rows = _sweep()

    table = Table(
        "E8: beam scheduling across treatment rooms",
        ["case", "rooms", "requested", "completed", "aborted", "utilisation",
         "mean_wait_s", "max_wait_s", "switches"],
        notes="waiting grows with room contention; motion cut-offs and shutdown abort in-flight fractions",
    )
    for case, rooms, result in rows:
        table.add_row(case, rooms, result.fractions_requested, result.fractions_completed,
                      result.fractions_aborted, result.beam_utilisation,
                      result.mean_waiting_time_s, result.max_waiting_time_s, result.beam_switches)
    emit(table)

    scheduled = [result for case, _, result in rows if case == "scheduled"]
    assert scheduled[-1].mean_waiting_time_s >= scheduled[0].mean_waiting_time_s
    shutdown = rows[-1][2]
    assert shutdown.emergency_shutdown_triggered
    assert shutdown.fractions_completed < shutdown.fractions_requested
