"""Campaign execution engine: manifest expansion, workers, checkpointing.

The engine expands a :class:`~repro.campaign.spec.CampaignSpec` into run
manifests and executes them either serially (the deterministic reference
path) or on worker processes.  Because every run is seeded from
its stable run id (not from execution order), the two paths produce
identical records; after :meth:`ResultStore.finalize` the on-disk results
are byte-identical as well.

Every run goes through :func:`~repro.campaign.resilience.execute_with_capture`
-- in the parent when serial, inside a worker process driven by the
:class:`~repro.campaign.resilience.ResilientDispatcher` when parallel -- and
comes back as an outcome.  The :class:`ResilienceConfig` decides what a
failed outcome does: the default :data:`FAIL_FAST` aborts the campaign with
a :class:`CampaignError`, an isolating config quarantines the run.

Workers receive the manifest list once, when they start, and are sent a
bare list index per run over their own pipe; each reply carries the run's
outcome and, with observability on, the worker's cumulative metrics
snapshot, which :meth:`CampaignEngine.run` merges into ``--metrics-out``.

A process executing runs holds one run's object graph at a time: what was
alive when execution started is frozen out of the collector's reach
(:func:`gc.freeze`), and each finished run's reference cycles are freed
before the next run starts
(:func:`~repro.campaign.resilience.execute_serially` in the parent, the
worker loop in a worker process).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.campaign.registry import CampaignError, get_scenario
from repro.campaign.resilience import (
    FAIL_FAST,
    OK,
    TIMEOUT,
    Outcome,
    ResilienceConfig,
    ResilientDispatcher,
    _note_retry,
    execute_serially,
)
from repro.campaign.sharding import ShardSelector
from repro.campaign.spec import CampaignSpec, RunManifest
from repro.campaign.store import ResultStore
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs.spans import tracer as obs_tracer

ProgressCallback = Callable[[int, int, Dict[str, Any]], None]


def _run_scenario(scenario, manifest: RunManifest) -> Dict[str, Any]:
    """Invoke the scenario runner, normalising failures to CampaignError."""
    try:
        return scenario.runner(dict(manifest.params), manifest.seed)
    except CampaignError:
        raise
    except Exception as error:
        # Name-level validation happens at expansion; bad *values* only
        # surface when the scenario config rejects them here.  Config
        # rejections (ValueError) stay one-line; anything else is a
        # programming error, so embed the traceback in the message — it must
        # travel *inside* the exception because pickling across the worker
        # boundary drops __cause__.
        if isinstance(error, ValueError):
            detail = str(error)
        else:
            detail = "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ).rstrip()
        raise CampaignError(
            f"run {manifest.run_id!r} of scenario {manifest.scenario!r} "
            f"failed: {detail}"
        ) from error


def _wrap_record(scenario, manifest: RunManifest,
                 result: Dict[str, Any]) -> Dict[str, Any]:
    """Validate declared result fields and build the campaign record."""
    missing = [key for key in scenario.result_fields if key not in result]
    if missing:
        raise CampaignError(
            f"scenario {manifest.scenario!r} returned a record missing "
            f"declared result fields {missing}"
        )
    return {
        "run_index": manifest.run_index,
        "run_id": manifest.run_id,
        "scenario": manifest.scenario,
        "seed": manifest.seed,
        "params": dict(manifest.params),
        "result": result,
    }


def execute_manifest(manifest: RunManifest) -> Dict[str, Any]:
    """Execute one run and wrap its result in the campaign record schema.

    With observability enabled, each lifecycle phase (setup / run /
    teardown) is wrapped in a wall-clock span whose trace and span ids are
    derived from the run id — deterministic across reruns and joinable
    across worker shards — and the whole run feeds the per-run wall-time
    histogram.  The record itself is byte-identical either way: metrics
    never touch simulation results.
    """
    instruments = obs_metrics.campaign_instruments()
    if instruments is None:
        scenario = get_scenario(manifest.scenario)
        result = _run_scenario(scenario, manifest)
        return _wrap_record(scenario, manifest, result)
    context = obs_tracer().trace(manifest.run_id)
    wall_before = perf_counter()
    with context.span(f"{manifest.scenario}:setup"):
        scenario = get_scenario(manifest.scenario)
    with context.span(f"{manifest.scenario}:run"):
        result = _run_scenario(scenario, manifest)
    with context.span(f"{manifest.scenario}:teardown"):
        record = _wrap_record(scenario, manifest, result)
    instruments.runs.value += 1
    instruments.run_wall_s.observe(perf_counter() - wall_before)
    return record


@dataclass
class CampaignReport:
    """What a finished (or resumed-to-completion) campaign hands back.

    The failure-path counters separate the runs that finished cleanly
    (``ok``), finished after in-worker retries (``retried``, a subset of
    ``ok``), were quarantined to ``errors.jsonl`` (``quarantined``, of
    which ``timed_out`` exceeded their wall-clock budget), and how many
    worker processes were killed or lost along the way
    (``worker_restarts``).  Under :data:`FAIL_FAST` every executed run is
    ``ok`` (a failure raises instead).
    """

    spec: CampaignSpec
    records: List[Dict[str, Any]]
    executed: int
    skipped: int
    workers: int
    directory: Optional[Path] = None
    metrics_path: Optional[Path] = None
    ok: int = 0
    retried: int = 0
    quarantined: int = 0
    timed_out: int = 0
    worker_restarts: int = 0
    errors: List[Dict[str, Any]] = field(default_factory=list)
    shard: Optional[ShardSelector] = None

    @property
    def total(self) -> int:
        return len(self.records)

    def results(self) -> List[Dict[str, Any]]:
        """The flat per-run result dicts, in run order."""
        return [record["result"] for record in self.records]


class CampaignEngine:
    """Expands and executes one campaign, optionally persisting to disk."""

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        workers: int = 1,
        directory: Optional[Union[str, Path]] = None,
        metrics_out: Optional[Union[str, Path]] = None,
        resilience: ResilienceConfig = FAIL_FAST,
        shard: Optional[ShardSelector] = None,
    ) -> None:
        if workers < 1:
            raise CampaignError("workers must be >= 1")
        if shard is not None:
            shard.validate()
        self.spec = spec
        self.shard = shard
        self.workers = workers
        self.store = ResultStore(directory) if directory is not None else None
        self.resilience = resilience
        self.metrics_out = Path(metrics_out) if metrics_out is not None else None
        if self.metrics_out is not None:
            # Requesting a metrics export IS the opt-in: enable obs before
            # any scenario constructs its simulator/channels.
            obs_metrics.enable()

    # ------------------------------------------------------------------- run
    def run(
        self,
        *,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> CampaignReport:
        """Execute every pending run; returns the complete, ordered records.

        With ``resume=True`` (and a store), runs already present in
        ``results.jsonl`` are skipped — re-running an interrupted campaign
        picks up exactly where it stopped.  Quarantined runs are *not*
        skipped: ``errors.jsonl`` is reset and every previously failed run
        is re-dispatched (it either succeeds this time or quarantines
        afresh).
        """
        manifests = self.spec.expand()
        shard_block: Optional[Dict[str, Any]] = None
        if self.shard is not None:
            # A sharded session is a complete campaign over its partition:
            # the same store/resume/finalize machinery runs unchanged on the
            # subset, and the manifest records the claimed assignment so a
            # later merge audits segments against it.
            shard_block = self.shard.manifest_block(len(manifests))
            manifests = self.shard.partition(manifests)
        completed: Dict[int, Dict[str, Any]] = {}
        if resume and self.store is None:
            raise CampaignError(
                "resume requested but no campaign directory is configured; "
                "pass the directory the interrupted campaign wrote to (--out)"
            )
        if self.store is not None:
            self.store.check_manifest(self.spec, manifests, shard=shard_block)
            if resume:
                self.store.repair()
                self.store.reset_errors()
                completed = self.store.completed()
            elif self.store.results_path.exists():
                # Even a torn, record-less file means a previous attempt ran
                # here; appending to it fresh would corrupt or discard work.
                raise CampaignError(
                    f"campaign directory {self.store.directory} already has results; "
                    "pass resume=True (or --resume) to continue it"
                )
            self.store.write_manifest(self.spec, manifests, shard=shard_block)

        pending = [m for m in manifests if m.run_index not in completed]
        done = len(completed)
        total = len(manifests)
        ok = retried = quarantined = timed_out = 0
        errors: List[Dict[str, Any]] = []
        wall_before = perf_counter() if self.metrics_out is not None else 0.0
        dispatcher: Optional[ResilientDispatcher] = None
        outcomes: Iterator[Outcome]
        if self.workers == 1 or len(pending) <= 1:
            outcomes = execute_serially(pending, self.resilience.retry,
                                        on_retry=_note_retry)
        else:
            # Outcomes arrive in completion order; ordering is restored by
            # ResultStore.finalize / the report sort.
            dispatcher = ResilientDispatcher(pending, self.resilience,
                                             min(self.workers, len(pending)))
            outcomes = dispatcher.outcomes()
        try:
            for kind, record, attempts in outcomes:
                if kind == OK:
                    completed[record["run_index"]] = record
                    if self.store is not None:
                        self.store.append(record)
                    ok += 1
                    if attempts > 1:
                        retried += 1
                else:
                    if not self.resilience.isolate:
                        raise CampaignError(record["error"]["message"])
                    quarantined += 1
                    if record["error"]["classification"] == TIMEOUT:
                        timed_out += 1
                    errors.append(record)
                    if self.store is not None:
                        self.store.append_error(record)
                done += 1
                if progress is not None:
                    progress(done, total, record)

            if self.store is not None:
                records = self.store.finalize()
                self.store.finalize_errors()
            else:
                records = [completed[index] for index in sorted(completed)]
        finally:
            # Deterministic shutdown: closing the outcome generator restores
            # the collector state and reaps every worker process, and the
            # store's handles are released, before an error propagates.
            outcomes.close()
            if self.store is not None:
                self.store.close()
        worker_restarts = dispatcher.worker_restarts if dispatcher is not None else 0
        instruments = obs_metrics.campaign_instruments()
        if instruments is not None:
            # Parent-side failure counters (in-worker retries are counted in
            # the worker snapshots; quarantine decisions happen here).
            instruments.runs_quarantined.value += quarantined
            instruments.worker_restarts.value += worker_restarts
        if self.metrics_out is not None:
            snapshots = dispatcher.snapshots if dispatcher is not None else {}
            self._write_metrics(perf_counter() - wall_before,
                                [snapshots[pid] for pid in sorted(snapshots)])
        return CampaignReport(
            spec=self.spec,
            records=records,
            executed=len(pending),
            skipped=total - len(pending),
            workers=self.workers,
            directory=self.store.directory if self.store is not None else None,
            metrics_path=self.metrics_out,
            ok=ok,
            retried=retried,
            quarantined=quarantined,
            timed_out=timed_out,
            worker_restarts=worker_restarts,
            errors=errors,
            shard=self.shard,
        )

    # ----------------------------------------------------------- observability
    def _write_metrics(self, wall_elapsed: float,
                       worker_snapshots: List[List[Dict[str, Any]]]) -> None:
        """Merge this process's and each worker's snapshot into ``metrics_out``.

        The campaign-level aggregates (total wall time, worker count, worker
        utilisation = busy run-seconds over ``workers * wall``) join the
        parent's snapshot as extra lines; the parent registry is not touched.
        """
        parent = obs_export.snapshot_lines(meta={"source": "campaign-engine"})
        groups = [parent, *worker_snapshots]
        busy = sum(float(line["sum"]) for group in groups for line in group
                   if line.get("type") == "histogram"
                   and line.get("name") == "campaign.run_wall_s")
        campaign = obs_metrics.MetricsRegistry()
        campaign.counter("campaign.wall_seconds_total").value = wall_elapsed
        campaign.gauge("campaign.workers", agg="max").set(float(self.workers))
        if wall_elapsed > 0.0:
            campaign.gauge("campaign.worker_utilisation").set(
                min(1.0, busy / (self.workers * wall_elapsed)))
        parent.extend(campaign.snapshot())
        self.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        self.metrics_out.write_text(
            obs_export.dump_lines(obs_export.merge_lines(groups)), encoding="utf-8")


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    directory: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    metrics_out: Optional[Union[str, Path]] = None,
    resilience: ResilienceConfig = FAIL_FAST,
    shard: Optional[ShardSelector] = None,
) -> CampaignReport:
    """One-call convenience wrapper around :class:`CampaignEngine`."""
    engine = CampaignEngine(
        spec, workers=workers, directory=directory, metrics_out=metrics_out,
        resilience=resilience, shard=shard,
    )
    return engine.run(resume=resume, progress=progress)
