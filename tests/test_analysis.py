"""Tests for the analysis helpers (metrics, stats, tables)."""

import pytest

from repro.analysis.metrics import (
    AlarmConfusion,
    aggregate_outcomes,
    classify_alarms,
    detection_latency,
)
from repro.analysis.stats import summarise
from repro.analysis.tables import Table, format_table


class _FakeResult:
    def __init__(self, harmed=False, failures=0, danger=0.0, drug=5.0, pain=2.0, stops=1):
        self.harmed = harmed
        self.respiratory_failure_events = failures
        self.time_below_spo2_90_s = danger
        self.total_drug_delivered_mg = drug
        self.mean_pain_level = pain
        self.supervisor_stops = stops


class TestSafetyOutcome:
    def test_aggregate_counts(self):
        outcome = aggregate_outcomes([_FakeResult(), _FakeResult(harmed=True, failures=2, danger=100.0)])
        assert outcome.patients == 2
        assert outcome.harmed == 1
        assert outcome.harm_rate == 0.5
        assert outcome.respiratory_failure_events == 2
        assert outcome.mean_time_in_danger_s == 50.0
        assert outcome.mean_drug_mg == 5.0
        assert outcome.mean_pain == 2.0

    def test_empty_aggregate(self):
        outcome = aggregate_outcomes([])
        assert outcome.harm_rate == 0.0
        assert outcome.mean_drug_mg == 0.0


class TestAlarmClassification:
    def test_true_and_false_positives(self):
        confusion = classify_alarms([5.0, 50.0], [(40.0, 60.0)])
        assert confusion.true_positives == 1
        assert confusion.false_positives == 1
        assert confusion.false_negatives == 0
        assert confusion.precision == 0.5
        assert confusion.false_alarm_rate == 0.5

    def test_missed_episode(self):
        confusion = classify_alarms([], [(10.0, 20.0)])
        assert confusion.false_negatives == 1
        assert confusion.sensitivity == 0.0

    def test_detection_lead_credits_early_warning(self):
        confusion = classify_alarms([35.0], [(40.0, 60.0)], detection_lead_s=10.0)
        assert confusion.true_positives == 1

    def test_negative_lead_rejected(self):
        with pytest.raises(ValueError):
            classify_alarms([], [], detection_lead_s=-1.0)

    def test_merged_confusions(self):
        a = AlarmConfusion(true_positives=1, false_positives=2)
        b = AlarmConfusion(true_positives=3, false_negatives=1)
        merged = a.merged_with(b)
        assert merged.true_positives == 4 and merged.false_positives == 2 and merged.false_negatives == 1

    def test_detection_latency(self):
        assert detection_latency(10.0, [5.0, 12.0, 20.0]) == 2.0
        assert detection_latency(30.0, [5.0, 12.0]) is None

class TestStats:
    def test_summary(self):
        summary = summarise([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert "mean" in summary.as_dict()

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise([])

class TestTables:
    def test_add_row_and_render(self):
        table = Table("demo", ["name", "value"])
        table.add_row("a", 1.234567)
        table.add_row("b", True)
        rendered = table.render()
        assert "demo" in rendered
        assert "1.235" in rendered
        assert "yes" in rendered

    def test_wrong_row_width_rejected(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_add_record_and_column(self):
        table = Table("demo", ["x", "y"])
        table.add_record({"x": 1, "y": 2})
        table.add_record({"x": 3})
        assert table.column("x") == [1, 3]
        assert table.column("y") == [2, ""]

    def test_format_table_notes(self):
        rendered = format_table("t", ["a"], [[1]], notes="hello")
        assert "notes: hello" in rendered

    def test_nan_rendering(self):
        rendered = format_table("t", ["a"], [[float("nan")]])
        assert "nan" in rendered
