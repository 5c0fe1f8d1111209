"""Repository benchmark: campaign workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pca_cohort --seed 3 --seconds 35 --trace 0

``--trace 0`` repeats untraced passes of the workload, each in a fresh
interpreter, for about ``--seconds`` seconds and reports the end-to-end
metrics as medians over the passes, with times scaled to a reference host
(see ``CALIB_REF_S``).  ``run_s.p50``/``p95`` are per-run runner seconds,
timed in the process that runs each run.  ``--trace 1`` runs one untraced and
two traced passes, all in one process each with one worker so that the
layer table closes on one clock, prints that table, and reports the
per-layer metrics.  Every pass checks the sha256 of its final
``results.jsonl`` against ``perfbench/reference.json``; the last line of
standard output is the JSON result.

``--record`` runs one untraced pass and stores its digest as the reference
of the seed's input variant (only after an intentional change of the
simulated results).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
PASS_TIMEOUT_S = 150.0
#: The shared host's speed drifts by tens of percent over minutes.  Every
#: untraced run is preceded, in the process that runs it, by a slice of a
#: fixed pure-Python loop (``workloads.instrument_runner``); a pass's times
#: are scaled by CALIB_REF_S over the mean slice time, so they are seconds
#: of a reference host on which a full slice takes CALIB_REF_S.  Traced
#: passes are scaled by the loop timed before and after them.
#: ``host.calib_s`` reports the raw loop time.
CALIB_REF_S = 0.02

sys.path.insert(0, str(HERE))

from workloads import VARIANTS, WORKLOADS, variant_of  # noqa: E402

#: (name, unit, better) of every end-to-end metric, reported with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("runs_per_s", "1/s", "higher"),
    ("sim_s_per_s", "s/s", "higher"),
    ("run_s.p50", "s", "lower"),
    ("run_s.p95", "s", "lower"),
    ("cpu_s_per_run", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("runs_ok_frac", "frac", "higher"),
)

#: Span layer -> its self-time metric, in table order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("kernel", "kernel.self_s"),
    ("channel", "channel.self_s"),
    ("bus", "bus.self_s"),
    ("supervisor", "supervisor.self_s"),
    ("devices", "devices.self_s"),
    ("patient", "patient.self_s"),
    ("trace", "trace.self_s"),
    ("scenario", "scenario.self_s"),
    ("topology.expand", "topology.expand_s"),
    ("topology.build", "topology.build_s"),
    ("spec.expand", "spec.expand_s"),
    ("engine", "engine.self_s"),
    ("store", "store.self_s"),
    ("store.merge", "store.merge_s"),
    ("aggregate", "aggregate.self_s"),
)

#: Exact counters of a traced pass, grouped under the layer that does the work.
LAYER_COUNTS: Dict[str, Tuple[str, ...]] = {
    "kernel": ("kernel.events", "kernel.events.channel", "kernel.events.bus",
               "kernel.events.device", "kernel.events.patient", "kernel.events.supervisor",
               "kernel.events.other", "kernel.heap_peak"),
    "channel": ("channel.sent", "channel.delivered", "channel.dropped"),
    "bus": ("bus.published", "bus.forwarded", "bus.commands"),
    "supervisor": ("supervisor.deliveries", "supervisor.steps"),
    "devices": ("devices.readings",),
    "patient": ("patient.advances",),
    "trace": ("trace.samples", "trace.flushes"),
    "scenario": ("faults.injected",),
    "store": ("store.appends", "store.bytes"),
    "aggregate": ("aggregate.records",),
}

#: Counters also reported per simulated hour.
PER_SIM_HOUR = ("kernel.events", "kernel.events.channel", "kernel.events.bus",
                "kernel.events.device", "kernel.events.patient", "kernel.events.supervisor",
                "kernel.events.other", "channel.sent", "channel.delivered", "bus.published",
                "bus.forwarded", "bus.commands", "trace.samples", "store.appends", "store.bytes")


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, reported with --trace 1."""
    metrics: List[Tuple[str, str, str]] = []
    for _layer, name in LAYER_METRICS:
        metrics.append((name, "s", "lower"))
    for names in LAYER_COUNTS.values():
        metrics.extend((name, "B" if name == "store.bytes" else "count", "lower") for name in names)
    metrics.extend((f"{name}.per_sim_h", "B/h" if name == "store.bytes" else "1/h", "lower")
                   for name in PER_SIM_HOUR)
    metrics += [
        ("channel.msgs_per_tick", "msgs/tick", "higher"),
        ("engine.worker_busy_frac", "frac", "higher"),
        ("tracing.overhead_frac", "frac", "lower"),
        ("host.calib_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
        ("runs_failed_frac", "frac", "lower"),
    ]
    return metrics


# ------------------------------------------------------------------ passes
def _stop_group(pgid: int) -> None:
    """Kill what is left of a pass's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_pass(workload: str, base_seed: int, *, workers: int, traced: bool, index: int) -> Dict[str, Any]:
    """One pass in a fresh interpreter; raises RuntimeError if it fails."""
    workdir = WORK / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {key: value for key, value in os.environ.items() if key != "REPRO_OBS"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(workdir))
    config = {"workload": workload, "base_seed": base_seed, "workers": workers,
              "traced": traced, "workdir": str(workdir)}
    config["t_spawn"] = perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(config)],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT), start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(process.pid)
        process.communicate()
        raise RuntimeError(f"{workload} pass timed out after {PASS_TIMEOUT_S}s") from None
    finally:
        _stop_group(process.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def check_pass(workload: str, result: Dict[str, Any], reference: Optional[str]) -> List[str]:
    """Reasons this pass's output is wrong (empty when it is right)."""
    problems = []
    expected = WORKLOADS[workload]["runs"]
    if result["runs"] != expected or result["attempted"] != expected:
        problems.append(f"{result['runs']} runs of {result['attempted']} attempted, expected {expected}")
    if result["failed"]:
        problems.append(f"{result['failed']} runs failed")
    if workload == "outage_sweep" and result["report_lines"] < 3:
        problems.append("the outage report is empty")
    if reference is None:
        problems.append("no reference digest recorded for this input variant")
    elif result["digest"] != reference:
        problems.append(f"results digest {result['digest'][:12]} != reference {reference[:12]}")
    return problems


# ----------------------------------------------------------------- metrics
def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_scale(result: Dict[str, Any]) -> float:
    """Factor that turns this pass's host seconds into reference-host seconds."""
    return CALIB_REF_S / statistics.mean(result["calib_run_s"] or result["calib_s"])


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over passes; run-time percentiles over all passes' runs.

    Times are in reference-host seconds (see :data:`CALIB_REF_S`).
    """
    run_s = [seconds * host_scale(result) for result in passes for seconds in result["run_s"]]

    def median(key) -> float:
        return statistics.median(key(result, host_scale(result)) for result in passes)

    return {
        "runs_per_s": median(lambda r, k: r["runs"] / (r["wall_s"] * k)),
        "sim_s_per_s": median(lambda r, k: r["sim_s"] / (r["wall_s"] * k)),
        "run_s.p50": statistics.median(run_s),
        "run_s.p95": quantile(run_s, 95),
        "cpu_s_per_run": median(lambda r, k: r["cpu_s"] * k / r["runs"]),
        "setup_s": median(lambda r, k: r["setup_s"] * k),
        "peak_rss_mb": median(lambda r, _k: r["peak_rss_mb"]),
        "runs_ok_frac": median(lambda r, _k: (r["attempted"] - r["failed"]) / r["attempted"]),
    }


def layer_table(traced: List[Dict[str, Any]], untraced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from two traced passes and one untraced pass."""
    layers = [result["layers"] for result in traced]
    counts = layers[0]["counts"]
    metrics: Dict[str, float] = {}
    for layer, name in LAYER_METRICS:
        metrics[name] = statistics.median(table["self_s"].get(layer, 0.0) for table in layers)
    for names in LAYER_COUNTS.values():
        for name in names:
            metrics[name] = counts.get(name, 0)
    sim_h = traced[0]["sim_s"] / 3600.0
    for name in PER_SIM_HOUR:
        metrics[f"{name}.per_sim_h"] = counts.get(name, 0) / sim_h
    ticks = counts.get("channel.delivery_events", 0)
    passes = traced + [untraced]
    traced_wall = statistics.median(r["wall_s"] * host_scale(r) for r in traced)
    metrics.update({
        "channel.msgs_per_tick": counts.get("channel.delivered", 0) / ticks if ticks else 0.0,
        "engine.worker_busy_frac": statistics.median(t["worker_busy_frac"] for t in layers),
        "tracing.overhead_frac": traced_wall / (untraced["wall_s"] * host_scale(untraced)) - 1.0,
        "host.calib_s": statistics.median(c for r in passes for c in r["calib_s"]),
        "unattributed_s": statistics.median(t["unattributed_s"] for t in layers),
        "runs_failed_frac": (sum(r["failed"] for r in passes)
                             / sum(r["attempted"] for r in passes)),
    })
    return metrics


def closure_problems(result: Dict[str, Any]) -> List[str]:
    """The layer self times plus unattributed time must sum to the wall time."""
    table = result["layers"]
    total = sum(table["self_s"].values()) + table["unattributed_s"]
    unknown = sorted(set(table["self_s"]) - {layer for layer, _ in LAYER_METRICS})
    problems = [f"spans of unknown layers {unknown}"] if unknown else []
    if abs(total - result["wall_s"]) > 1e-6 + 1e-9 * result["wall_s"]:
        problems.append(f"layer table sums to {total:.6f}s, wall is {result['wall_s']:.6f}s")
    if table["unattributed_s"] < 0.0:
        problems.append("negative unattributed time")
    return problems


def print_layer_table(workload: str, traced: Dict[str, Any]) -> None:
    table = traced["layers"]
    wall = traced["wall_s"]
    counts = table["counts"]
    print(f"layer table: {workload} (traced pass, wall {wall:.3f}s)")
    print(f"  {'layer':<16}{'self_s':>10}{'share':>8}  counts")
    rows = [(layer, table["self_s"].get(layer, 0.0)) for layer, _ in LAYER_METRICS]
    rows.append(("unattributed", table["unattributed_s"]))
    for layer, seconds in rows:
        names = LAYER_COUNTS.get(layer, ())
        text = " ".join(f"{name.split('.', 1)[1]}={counts.get(name, 0)}" for name in names)
        print(f"  {layer:<16}{seconds:>10.4f}{100.0 * seconds / wall:>7.1f}%  {text}")
    print(f"  {'total':<16}{sum(s for _, s in rows):>10.4f}{100.0:>7.1f}%")


def print_metrics(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<36}{text} {units[name]}")


# -------------------------------------------------------------------- main
def load_reference() -> Dict[str, Dict[str, str]]:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's result digest as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # the first pass must not pay for bytecode
    workload = args.workload
    variant = variant_of(args.seed)
    base_seed = variant + 1
    reference = load_reference()
    expected = reference.get(workload, {}).get(str(variant))
    default_workers = WORKLOADS[workload]["workers"]

    if args.record:
        result = run_pass(workload, base_seed, workers=default_workers, traced=False, index=0)
        reference.setdefault(workload, {})[str(variant)] = result["digest"]
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload} variant {variant}: {result['digest']}")
        return 0 if not check_pass(workload, result, result["digest"]) else 1

    problems: List[str] = []
    try:
        if args.trace == 0:
            passes: List[Dict[str, Any]] = []
            started = perf_counter()
            longest = 0.0
            while not passes or perf_counter() - started + longest <= args.seconds:
                begun = perf_counter()
                passes.append(run_pass(workload, base_seed, workers=default_workers,
                                       traced=False, index=len(passes)))
                longest = max(longest, perf_counter() - begun)
            metrics = end_to_end(passes)
            units = {name: unit for name, unit, _ in END_TO_END}
            all_passes = passes
        else:
            all_passes = []
            for index, traced in enumerate((False, True, True)):
                all_passes.append(run_pass(workload, base_seed, workers=1, traced=traced, index=index))
            untraced, traced_passes = all_passes[0], all_passes[1:]
            if traced_passes[0]["layers"]["counts"] != traced_passes[1]["layers"]["counts"]:
                problems.append("two traced passes counted different work")
            for result in traced_passes:
                problems.extend(closure_problems(result))
            print_layer_table(workload, traced_passes[0])
            metrics = layer_table(traced_passes, untraced)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for result in all_passes:
        problems.extend(check_pass(workload, result, expected))
    if len({result["digest"] for result in all_passes}) != 1:
        problems.append("passes produced different results")
    for problem in problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    print_metrics(f"{workload} seed {args.seed} (input variant {variant} of {VARIANTS}), "
                  f"{len(all_passes)} passes", metrics, units)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(result["attempted"] for result in all_passes),
        "failed": sum(result["failed"] for result in all_passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
