"""Command-line entry point: ``python -m repro.campaign <command>``.

Commands
--------
``list``
    Show the registered scenarios and their campaign parameters.
``run SPEC.json``
    Execute a campaign spec, optionally in parallel and/or persisted to a
    campaign directory (which then supports ``--resume`` and ``report``).
    ``--shard I/K`` executes only the I-th of K partitions (any box, any
    time, resumable independently); the spec may itself be a shard
    manifest emitted by ``shard``.
``shard SPEC.json --count K --out DIR``
    Emit K self-contained shard-manifest files, one dispatchable work
    unit per box.
``merge SEG [SEG ...] --out DIR``
    Fold finalized shard segments into one store whose ``results.jsonl``
    is byte-identical to a serial run, writing a content-hashed
    ``shard_index.json`` alongside.
``report DIR``
    Aggregate a stored campaign into a summary table via streaming
    (record-at-a-time) aggregation — a 100k-run store is never loaded
    into memory.
``topology SPEC.json``
    Expand a declarative hospital :class:`~repro.topology.spec.TopologySpec`
    into its deterministic manifest (canonical JSON): which patients occupy
    which beds, each bed's device stack and channels, and per-ward cohort
    composition.  The manifest depends only on (spec, seed) — the
    byte-identity surface the topology tests pin.

All commands emit through the :mod:`repro.obs.logging` facade: ``--json``
switches every line to NDJSON events (tables are emitted structurally as
``{title, columns, rows}``), ``--quiet`` suppresses informational output,
and the default human mode is byte-identical to the plain ``print`` output
this CLI used to produce.  ``run --metrics-out PATH`` enables the
observability registry and writes the merged campaign metrics snapshot.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from pathlib import Path

from repro.campaign.aggregate import campaign_table
from repro.campaign.engine import run_campaign
from repro.campaign.registry import CampaignError, get_scenario, list_scenarios
from repro.campaign.resilience import FAIL_FAST, ResilienceConfig, RetryPolicy
from repro.campaign.sharding import (ShardSelector, load_spec_or_shard,
                                     write_shard_manifests)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs.logging import StructLogger, get_logger


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Population-scale simulation campaigns over the repro scenarios.",
    )
    # Output-mode flags are shared by every subcommand via a parent parser,
    # so `run --quiet` keeps working exactly as before and `list`/`report`
    # gain the same switches.
    output = argparse.ArgumentParser(add_help=False)
    mode = output.add_mutually_exclusive_group()
    mode.add_argument("--quiet", action="store_true",
                      help="suppress informational output (errors still print)")
    mode.add_argument("--json", action="store_true",
                      help="emit NDJSON events instead of human-readable lines")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", parents=[output],
                        help="show registered campaign scenarios")

    run = commands.add_parser("run", parents=[output],
                              help="execute a campaign spec (JSON file)")
    run.add_argument("spec", help="path to a campaign spec JSON file "
                                  "(or a shard manifest emitted by 'shard')")
    run.add_argument("--shard", default=None, metavar="I/K",
                     help="execute only the I-th of K partitions of the "
                          "expanded campaign (1-based, e.g. 2/4); segments "
                          "merge byte-identically via 'merge'")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = deterministic serial reference)")
    run.add_argument("--out", default=None,
                     help="campaign directory for streamed results and resume")
    run.add_argument("--resume", action="store_true",
                     help="skip runs already completed in --out")
    run.add_argument("--group-by", default=None,
                     help="comma-separated fields for the post-run summary table")
    run.add_argument("--metrics", default=None,
                     help="comma-separated result metrics for the summary table")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="enable observability and write the merged campaign "
                          "metrics snapshot (NDJSON) to PATH")
    run.add_argument("--isolate-failures", action="store_true",
                     help="quarantine failing runs to errors.jsonl instead of "
                          "aborting the campaign (resume re-dispatches them)")
    run.add_argument("--retries", type=int, default=3, metavar="N",
                     help="with --isolate-failures: total attempts per run for "
                          "transient failures (default 3; 1 disables retry)")
    run.add_argument("--run-timeout", type=float, default=None, metavar="SECONDS",
                     help="with --isolate-failures and --workers > 1: per-run "
                          "wall-clock budget; a run exceeding it is "
                          "quarantined and its worker killed and respawned")

    shard = commands.add_parser(
        "shard", parents=[output],
        help="partition a campaign into dispatchable shard manifests")
    shard.add_argument("spec", help="path to a campaign spec JSON file")
    shard.add_argument("--count", type=int, required=True, metavar="K",
                       help="number of shards to emit")
    shard.add_argument("--out", required=True, metavar="DIR",
                       help="directory for the shard manifest files")

    merge = commands.add_parser(
        "merge", parents=[output],
        help="merge finalized shard segments into one campaign store")
    merge.add_argument("segments", nargs="+",
                       help="shard segment directories written by "
                            "'run --shard I/K --out SEG'")
    merge.add_argument("--out", required=True, metavar="DIR",
                       help="directory for the merged store")
    merge.add_argument("--allow-partial", action="store_true",
                       help="merge whatever segments are present instead of "
                            "failing on missing shards/runs")
    merge.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="enable observability and merge each segment's "
                            "metrics.ndjson (plus the merge's own counters) "
                            "into one snapshot at PATH")

    report = commands.add_parser("report", parents=[output],
                                 help="summarise a stored campaign")
    report.add_argument("directory", help="campaign directory written by 'run --out'")
    report.add_argument("--group-by", default=None,
                        help="comma-separated grouping fields (default: swept params)")
    report.add_argument("--metrics", default=None,
                        help="comma-separated result metrics (default: scenario schema)")
    report.add_argument("--statistic", default="mean",
                        choices=("mean", "median", "min", "max", "std"))

    topology = commands.add_parser(
        "topology", parents=[output],
        help="expand a hospital topology spec into its deterministic manifest")
    topology.add_argument("spec", help="path to a TopologySpec JSON file")
    topology.add_argument("--seed", type=int, default=0,
                          help="expansion seed (default 0); identical "
                               "(spec, seed) pairs expand byte-identically")
    topology.add_argument("--out", default=None, metavar="PATH",
                          help="write the canonical manifest JSON to PATH "
                               "(default: print a summary only)")
    return parser


def _make_logger(args: argparse.Namespace) -> StructLogger:
    mode = "json" if getattr(args, "json", False) else (
        "quiet" if getattr(args, "quiet", False) else "human")
    return get_logger("repro.campaign", mode=mode)


def _csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    fields = [item.strip() for item in value.split(",") if item.strip()]
    return fields or None


def _default_metrics(records: Sequence[Dict[str, Any]], limit: int = 6) -> List[str]:
    """Numeric fields of the scenario's declared result schema (or any found)."""
    if not records:
        return []

    def numeric(key: str) -> bool:
        # A field may legitimately be None for some runs (e.g. a latency when
        # nothing was detected), so look for the first run that has a value.
        return any(
            isinstance(record["result"].get(key), (bool, int, float))
            for record in records
        )

    try:
        schema = get_scenario(records[0]["scenario"]).result_fields
    except CampaignError:
        schema = ()
    metrics = [key for key in schema if numeric(key)]
    if not metrics:
        metrics = [key for key in records[0]["result"] if numeric(key)]
    return metrics[:limit]


def _emit_rendered(log: StructLogger, table) -> None:
    if log.json_mode:
        log.info(event="table", title=table.title, columns=list(table.columns),
                 rows=[list(row) for row in table.rows])
    else:
        log.info(table.render())


def _emit_table(log: StructLogger, records, group_by, metrics,
                statistic="mean", title="campaign summary"):
    if not records:
        log.info("no records", event="table")
        return
    if not group_by:
        group_by = ["scenario"]
    table = campaign_table(
        records, group_by=group_by, metrics=metrics, statistic=statistic, title=title
    )
    _emit_rendered(log, table)


def _cmd_list(log: StructLogger) -> int:
    for scenario in list_scenarios():
        cohort = " [cohort]" if scenario.supports_cohort else ""
        defaults = ", ".join(f"{k}={v!r}" for k, v in sorted(scenario.defaults.items()))
        if log.json_mode:
            log.info(event="scenario", name=scenario.name,
                     cohort=scenario.supports_cohort,
                     description=scenario.description,
                     parameters={k: repr(v) for k, v in sorted(scenario.defaults.items())},
                     result_fields=list(scenario.result_fields))
            continue
        log.info(f"{scenario.name}{cohort}: {scenario.description}")
        log.info(f"  parameters: {defaults}")
        log.info(f"  result fields: {', '.join(scenario.result_fields)}")
    return 0


def _cmd_run(args: argparse.Namespace, log: StructLogger) -> int:
    spec, shard = load_spec_or_shard(args.spec)
    if args.shard is not None:
        selected = ShardSelector.parse(args.shard)
        if shard is not None and shard != selected:
            raise CampaignError(
                f"spec file {args.spec} is the manifest for shard "
                f"{shard.label} but --shard requested {selected.label}")
        shard = selected
    total = spec.grid_size()
    shard_note = ""
    if shard is not None:
        owned = len(shard.run_indices(total))
        shard_note = f" (shard {shard.label}: {owned} of {total} runs)"
    log.info(f"campaign {spec.name!r}: {total} runs of scenario {spec.scenario!r} "
             f"({args.workers} worker{'s' if args.workers != 1 else ''})"
             f"{shard_note}",
             event="campaign-start", campaign=spec.name, scenario=spec.scenario,
             runs=total, workers=args.workers,
             shard=shard.label if shard is not None else None)

    def progress(done: int, total_runs: int, record: Dict[str, Any]) -> None:
        log.info(f"  [{done}/{total_runs}] {record['run_id']}",
                 event="progress", done=done, total=total_runs,
                 run_id=record["run_id"])

    resilience = FAIL_FAST
    if args.isolate_failures:
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=args.retries),
            run_timeout_s=args.run_timeout,
        )
    elif args.run_timeout is not None:
        raise CampaignError("--run-timeout requires --isolate-failures")

    report = run_campaign(
        spec,
        workers=args.workers,
        directory=args.out,
        resume=args.resume,
        progress=progress,
        metrics_out=args.metrics_out,
        resilience=resilience,
        shard=shard,
    )
    where = f" -> {report.directory}" if report.directory else ""
    log.info(f"completed {report.total} runs "
             f"({report.executed} executed, {report.skipped} resumed){where}",
             event="campaign-done", total=report.total, executed=report.executed,
             skipped=report.skipped,
             directory=str(report.directory) if report.directory else None)
    if resilience.isolate:
        log.info(f"outcomes: {report.ok} ok ({report.retried} after retry), "
                 f"{report.quarantined} quarantined "
                 f"({report.timed_out} timed out), "
                 f"{report.worker_restarts} worker restarts",
                 event="campaign-outcomes", ok=report.ok,
                 retried=report.retried, quarantined=report.quarantined,
                 timed_out=report.timed_out,
                 worker_restarts=report.worker_restarts)
        if report.quarantined and report.directory is not None:
            log.info(f"quarantined runs -> {report.directory / 'errors.jsonl'} "
                     "(re-run with --resume to re-dispatch them)",
                     event="campaign-quarantine",
                     errors=str(report.directory / "errors.jsonl"))
    if report.metrics_path is not None:
        log.info(f"metrics snapshot -> {report.metrics_path}",
                 event="metrics-written", path=str(report.metrics_path))

    group_by = _csv(args.group_by) or spec.sweep_axes()
    metrics = _csv(args.metrics) or _default_metrics(report.records)
    if metrics:
        _emit_table(log, report.records, group_by, metrics,
                    title=f"campaign {spec.name!r} summary")
    return 0


def _cmd_shard(args: argparse.Namespace, log: StructLogger) -> int:
    spec = CampaignSpec.from_file(args.spec)
    written = write_shard_manifests(spec, args.out, args.count)
    for path, selector, runs in written:
        log.info(f"  shard {selector.label}: {runs} runs -> {path}",
                 event="shard-written", shard=selector.label, runs=runs,
                 path=str(path))
    total = sum(runs for _, _, runs in written)
    log.info(f"campaign {spec.name!r}: {total} runs partitioned into "
             f"{args.count} shard manifest(s) in {args.out}",
             event="shard-done", campaign=spec.name, runs=total,
             count=args.count, directory=args.out)
    return 0


def _merge_metrics(args: argparse.Namespace, log: StructLogger,
                   merged_segments: int) -> None:
    """Fold per-segment metrics snapshots + the merge's own counters.

    Each segment directory may carry a ``metrics.ndjson`` written by ``run
    --metrics-out``; those fold bucket-wise (per-segment wall histograms) and
    sum-wise (counters) with a parent snapshot that counts the merged
    segments.
    """
    instruments = obs_metrics.campaign_instruments()
    if instruments is not None:
        instruments.segments_merged.value += merged_segments
    groups = [obs_export.snapshot_lines(meta={"source": "campaign-merge"})]
    for segment in args.segments:
        snapshot = Path(segment) / "metrics.ndjson"
        if snapshot.exists():
            groups.append(obs_export.read_snapshot(snapshot))
    out = Path(args.metrics_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(obs_export.dump_lines(obs_export.merge_lines(groups)),
                   encoding="utf-8")
    log.info(f"metrics snapshot ({len(groups) - 1} segment shard(s)) -> {out}",
             event="metrics-written", path=str(out), shards=len(groups) - 1)


def _cmd_merge(args: argparse.Namespace, log: StructLogger) -> int:
    if args.metrics_out is not None:
        obs_metrics.enable()
    store = ResultStore(args.out)
    result = store.merge(args.segments, allow_partial=args.allow_partial)
    for info in result.segments:
        log.info(f"  shard {info.index}/{info.count}: {info.records} records "
                 f"from {info.directory} (sha256 {info.sha256[:12]})",
                 event="segment-merged", shard=f"{info.index}/{info.count}",
                 records=info.records, directory=str(info.directory),
                 sha256=info.sha256, skipped_lines=info.skipped_lines)
    log.info(f"merged {result.records}/{result.total_runs} runs from "
             f"{len(result.segments)} segment(s) -> {result.directory} "
             f"(results sha256 {result.merged_sha256[:12]})",
             event="merge-done", records=result.records,
             total_runs=result.total_runs, segments=len(result.segments),
             directory=str(result.directory), sha256=result.merged_sha256,
             index=str(result.index_path), errors=result.errors)
    if result.missing:
        log.info(f"partial merge: {len(result.missing)} run(s) still missing",
                 event="merge-partial", missing=len(result.missing))
    if args.metrics_out is not None:
        _merge_metrics(args, log, len(result.segments))
    return 0


def _cmd_report(args: argparse.Namespace, log: StructLogger) -> int:
    store = ResultStore.existing(args.directory)
    # A bounded peek infers default metrics; aggregation itself re-streams
    # the file record-at-a-time, so the store is never materialised.
    peek = store.head_records(64)
    if not peek:
        log.error(f"no results in {args.directory}",
                  event="report-empty", directory=args.directory)
        return 1
    manifest = store.load_manifest()
    spec = CampaignSpec.from_dict(manifest["spec"]) if manifest else None
    group_by = _csv(args.group_by) or (spec.sweep_axes() if spec else [])
    if not group_by:
        group_by = ["scenario"]
    metrics = _csv(args.metrics) or _default_metrics(peek)
    title = f"campaign {spec.name!r} report" if spec else "campaign report"
    if not metrics:
        log.info("no records", event="table")
        return 0
    table = campaign_table(
        store.iter_records(), group_by=group_by, metrics=metrics,
        statistic=args.statistic, title=title)
    _emit_rendered(log, table)
    return 0


def _cmd_topology(args: argparse.Namespace, log: StructLogger) -> int:
    # Imported here so the topology layer stays optional for the other
    # subcommands; expansion failures surface as CampaignError -> exit 2.
    from repro.topology import (TopologyError, TopologySpec, cohort_counts,
                                expand_topology, manifest_json)

    try:
        spec = TopologySpec.from_file(args.spec)
        manifest = expand_topology(spec, args.seed)
        canonical = manifest_json(spec, args.seed)
    except TopologyError as error:
        raise CampaignError(f"invalid topology spec: {error}") from None
    cohorts = cohort_counts(manifest)
    cohort_note = ", ".join(f"{name}={count}"
                            for name, count in sorted(cohorts.items()))
    log.info(f"topology {spec.name!r} @ seed {args.seed}: "
             f"{len(spec.wards)} ward(s), {spec.total_beds} beds, "
             f"{spec.total_caregivers()} caregiver(s); cohorts: {cohort_note}",
             event="topology-expanded", topology=spec.name, seed=args.seed,
             wards=len(spec.wards), beds=spec.total_beds,
             caregivers=spec.total_caregivers(), cohorts=cohorts)
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(canonical + "\n", encoding="utf-8")
        log.info(f"manifest ({len(canonical)} bytes) -> {out}",
                 event="manifest-written", path=str(out), bytes=len(canonical))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    log = _make_logger(args)
    try:
        if args.command == "list":
            return _cmd_list(log)
        if args.command == "run":
            return _cmd_run(args, log)
        if args.command == "shard":
            return _cmd_shard(args, log)
        if args.command == "merge":
            return _cmd_merge(args, log)
        if args.command == "report":
            return _cmd_report(args, log)
        if args.command == "topology":
            return _cmd_topology(args, log)
    except CampaignError as error:
        log.error(f"error: {error}", event="error", error=str(error))
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
