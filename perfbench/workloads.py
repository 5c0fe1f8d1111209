"""The three benchmark workloads and one pass over one of them.

Every workload is a closed-loop campaign driven through the public
``repro.campaign`` API: the engine hands the next run to a worker as soon
as one frees up.  A *pass* runs one workload once, from spec hand-off to
the finalized store (for ``outage_sweep``: through merge and report), and
reports its timings, its result digest and, when traced, its layer table.

Run as a script, this module executes one pass in a fresh interpreter and
prints the pass as one JSON line::

    python3 perfbench/workloads.py '{"workload": "pca_cohort", "base_seed": 1,
        "workers": 1, "traced": false, "t_spawn": 0.0, "workdir": "..."}'
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

#: Workload name -> runs per pass, workers of an untraced pass, and
#: iterations of the calibration slice before each untraced run: long
#: enough to time reliably, a few percent of a run.
WORKLOADS: Dict[str, Dict[str, int]] = {
    "pca_cohort": {"runs": 16, "workers": 1, "slice": 200_000},
    "ward_shift": {"runs": 6, "workers": 1, "slice": 400_000},
    "outage_sweep": {"runs": 240, "workers": 2, "slice": 50_000},
}

#: ``--seed`` selects one of this many input variants (base seeds 1..N), so
#: every input the benchmark can make has a recorded reference digest.
VARIANTS = 8

#: Iterations of one calibration slice (about 20 ms on the reference host).
CALIBRATION_ITERATIONS = 200_000

#: Result fields the ``outage_sweep`` report aggregates.
REPORT_METRICS = ("harmed", "time_below_spo2_90_s", "supervisor_stops")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def build_specs(workload: str, base_seed: int) -> list:
    """The campaign spec(s) of ``workload`` for one base seed."""
    from repro.campaign import CampaignSpec

    if workload == "pca_cohort":
        # Experiment E1: an 8-patient paired cohort, open vs closed loop.
        return [CampaignSpec(
            name="bench-pca-cohort", scenario="pca",
            parameters={"mode": ["open_loop", "closed_loop"], "duration_s": 3 * 3600.0},
            cohort_size=8, base_seed=base_seed)]
    if workload == "ward_shift":
        from repro.scenarios.ward import DEFAULT_TOPOLOGY
        from repro.topology.spec import standard_hospital

        ward = DEFAULT_TOPOLOGY["wards"][0]
        topology = standard_hospital(
            "bench-ward", wards=2, beds_per_ward=12, device_mix=ward["device_mix"],
            cohort=ward["cohort"], staffing=ward["staffing"], faults=ward["faults"],
        ).as_dict()
        return [CampaignSpec(
            name="bench-ward-shift", scenario="ward",
            parameters={"topology": topology, "duration_s": 1800.0,
                        "security_posture": "allowlisted"},
            cohort_size=6, base_seed=base_seed)]
    if workload == "outage_sweep":
        # Section II(c): pulse-oximeter uplink outage, start x duration.
        return [CampaignSpec(
            name="bench-outage-sweep", scenario="pca",
            parameters={"mode": ["open_loop", "closed_loop"], "duration_s": 1200.0},
            faults=[{"kind": "channel_outage", "target": "uplink:pulse-ox-1",
                     "start": [300.0, 600.0], "duration": [60.0, 300.0, 600.0]}],
            repeats=20, base_seed=base_seed)]
    raise ValueError(f"unknown workload {workload!r}")


def _calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> float:
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def calibrate(slices: int = 7) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed right now."""
    return sorted(_calibration_loop() for _ in range(slices))[slices // 2]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest worker's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def instrument_runner(scenario: str, workload: str, workdir: Path, spans: Any = None) -> None:
    """Re-register ``scenario`` with a runner that measures where it runs.

    Pool workers are forked after this, so they inherit the wrapper.  Each
    process writes ``first-<pid>`` when it starts its first run: the end of
    set-up.  Untraced, a short slice of the calibration loop precedes each
    run, so the host's speed is sampled between runs, in the process and
    under the load that runs them; ``runs-<pid>`` gets one line of run
    seconds and slice seconds (scaled to a full slice) per run.  Traced,
    the runner runs inside a ``scenario`` span instead.
    """
    from repro.campaign import get_scenario, register_scenario

    spec = get_scenario(scenario)
    runner = spec.runner
    iterations = WORKLOADS[workload]["slice"]
    if spans is not None:
        from layers import traced

        runner = traced(spans, "scenario", runner)
    started: List[bool] = []

    def measured_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
        if not started:
            started.append(True)
            (workdir / f"first-{os.getpid()}").write_text(repr(perf_counter()), encoding="utf-8")
        if spans is not None:
            return runner(params, seed)
        slice_s = _calibration_loop(iterations) * CALIBRATION_ITERATIONS / iterations
        begun = perf_counter()
        result = runner(params, seed)
        run_s = perf_counter() - begun
        with open(workdir / f"runs-{os.getpid()}", "a", encoding="utf-8") as log:
            log.write(f"{run_s!r} {slice_s!r}\n")
        return result

    register_scenario(dataclasses.replace(spec, runner=measured_runner))


def run_workload(workload: str, base_seed: int, workdir: Path, workers: int,
                 spans: Any = None) -> Dict[str, Any]:
    """Execute one pass; returns its outcome counts, final stores and the
    seconds spent in ``CampaignEngine.run``.

    With ``spans``, the report (streaming aggregation plus rendering) runs
    inside an ``aggregate`` span.
    """
    from repro.campaign import (CampaignEngine, ResilienceConfig, ResultStore,
                                RetryPolicy, all_shards, streaming_campaign_table)

    spec = build_specs(workload, base_seed)[0]
    if workload != "outage_sweep":
        store_dir = workdir / "store"
        begun = perf_counter()
        report = CampaignEngine(spec, workers=workers, directory=store_dir).run()
        return {"attempted": report.executed, "failed": report.quarantined,
                "records": report.records, "results": store_dir / "results.jsonl",
                "stores": [store_dir], "report": "", "engine_s": perf_counter() - begun}
    resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=3), run_timeout_s=120.0)
    attempted = failed = 0
    engine_s = 0.0
    records: List[Dict[str, Any]] = []
    segments = []
    for shard in all_shards(2):
        segment = workdir / shard.file_stem()
        begun = perf_counter()
        report = CampaignEngine(spec, workers=workers, directory=segment,
                                resilience=resilience, shard=shard).run()
        engine_s += perf_counter() - begun
        attempted += report.executed
        failed += report.quarantined
        records.extend(report.records)
        segments.append(segment)
    merged = ResultStore(workdir / "merged")
    if not merged.merge(segments).complete:
        raise RuntimeError("merge of the outage_sweep shards is incomplete")

    def report_text() -> str:
        return streaming_campaign_table(
            merged.iter_records(), group_by=["mode", "fault0.duration"],
            metrics=list(REPORT_METRICS), title="safety vs uplink outage duration").render()

    text = spans.call("aggregate", report_text) if spans is not None else report_text()
    return {"attempted": attempted, "failed": failed, "records": records,
            "results": merged.results_path, "stores": segments + [merged.directory],
            "report": text, "engine_s": engine_s}


def registry_counts() -> Dict[str, int]:
    """The exact counters the ``repro.obs`` registry kept during a traced pass."""
    from repro.obs import registry

    names = {
        "kernel.events": "kernel.events_fired", "kernel.heap_peak": "kernel.heap_peak",
        "channel.sent": "channel.sent", "channel.delivered": "channel.delivered",
        "channel.dropped": "channel.dropped", "bus.published": "bus.published",
        "bus.forwarded": "bus.forwarded", "bus.commands": "bus.commands",
        "trace.samples": "sampler.flushed_samples", "trace.flushes": "sampler.flushes",
        "faults.injected": "campaign.faults_injected",
    }
    counts = {}
    for name, metric_name in names.items():
        metric = registry().get(metric_name)
        counts[name] = int(metric.value) if metric is not None else 0
    return counts


def run_pass(config: Dict[str, Any]) -> Dict[str, Any]:
    """One pass of ``config["workload"]`` in this interpreter."""
    workload = config["workload"]
    workers = config["workers"]
    workdir = Path(config["workdir"])
    spans = None
    if config["traced"]:
        import repro.obs
        from layers import Spans, install

        repro.obs.enable()
        spans = Spans()
        install(spans)
    for scenario in ("pca", "ward"):
        instrument_runner(scenario, workload, workdir, spans)
    if spans is not None:
        repro.obs.registry().reset()
        spans.reset()
    calibrating = perf_counter()
    calib_before = calibrate()
    calibrating = perf_counter() - calibrating  # not part of set-up
    cpu_before = cpu_seconds()
    start = perf_counter()
    outcome = run_workload(workload, config["base_seed"], workdir, workers, spans)
    wall = perf_counter() - start
    cpu = cpu_seconds() - cpu_before
    calib_after = calibrate()
    run_s: List[float] = []
    slices: List[float] = []
    for log in workdir.glob("runs-*"):
        for line in log.read_text(encoding="utf-8").splitlines():
            seconds, slice_s = map(float, line.split())
            run_s.append(seconds)
            slices.append(slice_s)
    # The slices are the benchmark's, not the program's: take their time
    # out of the pass (``workers`` of them ran at once).
    sliced = sum(slices) * WORKLOADS[workload]["slice"] / CALIBRATION_ITERATIONS
    stamps = [float(path.read_text(encoding="utf-8")) for path in workdir.glob("first-*")]
    result: Dict[str, Any] = {
        "digest": file_digest(outcome["results"]),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "runs": len(outcome["records"]),
        "sim_s": sum(float(record["params"]["duration_s"]) for record in outcome["records"]),
        "wall_s": wall - sliced / workers,
        "cpu_s": cpu - sliced,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": min(stamps) - config["t_spawn"] - calibrating,
        "run_s": run_s,
        "report_lines": len(outcome["report"].splitlines()),
        "calib_s": [calib_before, calib_after],
        "calib_run_s": slices,
    }
    if spans is not None:
        counts = dict(spans.counts)
        counts.update(registry_counts())
        counts["store.bytes"] = sum(tree_bytes(store) for store in outcome["stores"])
        run_wall = repro.obs.registry().get("campaign.run_wall_s")
        result["layers"] = {
            "self_s": dict(spans.self_s),
            "unattributed_s": spans.unattributed_s(wall),
            "counts": counts,
            "worker_busy_frac": run_wall.sum / (outcome["engine_s"] * workers),
        }
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    print(json.dumps(run_pass(json.loads(args[0])), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
