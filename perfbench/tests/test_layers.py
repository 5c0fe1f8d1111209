"""Self-time arithmetic of the benchmark's layer table.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from layers import Spans, layer_of_module, traced  # noqa: E402
from run import END_TO_END, per_layer_metrics  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_split_into_self_time_and_close_on_wall() -> None:
    clock = FakeClock()
    spans = Spans(clock)
    clock.now = 1.0
    outer = spans.enter("kernel")            # kernel  [1, 11]
    clock.now = 2.0
    middle = spans.enter("channel")          # channel [2, 6]
    clock.now = 3.0
    inner = spans.enter("bus")               # bus     [3, 4]
    clock.now = 4.0
    assert spans.exit(inner) == 1.0
    clock.now = 6.0
    assert spans.exit(middle) == 4.0
    clock.now = 7.0
    second = spans.enter("devices")          # devices [7, 9]
    clock.now = 9.0
    spans.exit(second)
    clock.now = 11.0
    spans.exit(outer)
    assert spans.self_s == {"bus": 1.0, "channel": 3.0, "devices": 2.0, "kernel": 4.0}
    wall = 12.0
    assert spans.unattributed_s(wall) == 2.0
    assert sum(spans.self_s.values()) + spans.unattributed_s(wall) == wall


def test_same_family_call_stays_in_the_open_span_and_counts() -> None:
    clock = FakeClock()
    spans = Spans(clock)

    def merge() -> None:
        clock.now += 2.0
        read()

    def read() -> None:
        clock.now += 3.0

    traced_read = traced(spans, "store", read, "store.reads")
    read = traced_read  # merge calls the wrapped reader, as patched code would
    traced_merge = traced(spans, "store.merge", merge)
    traced_merge()
    traced_read()
    assert spans.self_s == {"store.merge": 5.0, "store": 3.0}
    assert spans.counts == {"store.reads": 2}
    assert spans.covered_s == 8.0
    assert spans.stack == []


def test_span_closes_when_the_call_raises() -> None:
    clock = FakeClock()
    spans = Spans(clock)

    def fail() -> None:
        clock.now += 1.5
        raise ValueError("boom")

    try:
        traced(spans, "patient", fail)()
    except ValueError:
        pass
    assert spans.self_s == {"patient": 1.5}
    assert spans.stack == []


def test_modules_map_to_layers() -> None:
    assert layer_of_module("repro.sim.channel") == "channel"
    assert layer_of_module("repro.devices.pulse_oximeter") == "devices"
    assert layer_of_module("repro.core.pca") == "supervisor"
    assert layer_of_module("repro.sim.faults") == "scenario"
    assert layer_of_module("repro.sim.kernelx") == "scenario"


def test_benchmark_json_names_every_reported_metric() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in declared["end_to_end"]] == [name for name, _, _ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == per_layer_metrics()
    assert {m["unit"] for m in declared["end_to_end"] if m["name"] == "setup_s"} == {"s"}
