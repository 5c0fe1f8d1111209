"""E5: mixed-criticality bed / MAP context suppression (Section III(l)).

Raising the bed (a Class I device) steps the measured MAP without any
physiological change.  The bench compares a conventional MAP threshold alarm
with a context-aware alarm that correlates bed-height events, on false alarms
and missed genuine hypotension episodes, across a sweep of bed-move counts.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.scenarios.bed_map import BedMapConfig, BedMapScenario

BED_MOVE_COUNTS = (2, 6, 12)


def _sweep():
    rows = []
    for moves in BED_MOVE_COUNTS:
        for aware in (False, True):
            result = BedMapScenario(BedMapConfig(bed_moves=moves, use_context_awareness=aware,
                                                 seed=13)).run()
            rows.append((moves, aware, result))
    return rows


def test_e5_bed_map_context():
    rows = _sweep()

    table = Table(
        "E5: MAP false alarms vs bed moves, with and without context awareness",
        ["bed_moves", "context_aware", "clinical_alarms", "false_alarms", "suppressed",
         "true_episodes", "missed_episodes"],
        notes="context events from the Class I bed suppress artefact alarms on the Class II/III monitor",
    )
    for moves, aware, result in rows:
        table.add_row(moves, aware, result.clinical_alarms, result.false_alarm_count,
                      result.suppressed_alarms, result.true_episodes, result.missed_episodes)
    emit(table)

    for moves in BED_MOVE_COUNTS:
        baseline = next(r for m, aware, r in rows if m == moves and not aware)
        aware = next(r for m, a, r in rows if m == moves and a)
        assert aware.false_alarm_count <= baseline.false_alarm_count
        assert aware.missed_episodes == 0
