"""Population-scale simulation campaigns.

The seed experiments run scenarios one patient at a time; this package is
the scaling backbone that turns them into ward- and hospital-scale Monte
Carlo campaigns:

* :mod:`~repro.campaign.registry` -- scenario registry: every bundled
  scenario registers a declarative :class:`~repro.campaign.registry.ScenarioSpec`
  (name, parameter defaults, result schema, module-level runner).
* :mod:`~repro.campaign.spec` -- :class:`~repro.campaign.spec.CampaignSpec`
  parameter-sweep / cohort expansion into stable, individually seeded
  :class:`~repro.campaign.spec.RunManifest` entries.
* :mod:`~repro.campaign.engine` -- parallel execution on worker processes
  the engine owns, with a deterministic serial fallback; serial and
  parallel campaigns produce byte-identical finalized results.
* :mod:`~repro.campaign.store` -- streaming JSONL result store with
  checkpoint/resume of partially completed campaigns and a quarantine
  file (``errors.jsonl``) for failed runs.
* :mod:`~repro.campaign.resilience` -- fault-tolerant execution: bounded
  deterministic retry of transient failures, structured error capture,
  and the parent side of the workers: one pipe each, woken by a
  completion, a death or a run deadline, surviving hung and killed
  workers.
* :mod:`~repro.campaign.sharding` -- K-way partition of an expanded
  campaign into independently executable, independently seeded shards
  whose finalized segments merge byte-identically
  (:meth:`~repro.campaign.store.ResultStore.merge`).
* :mod:`~repro.campaign.aggregate` -- grouped aggregation feeding
  :mod:`repro.analysis` (summary tables, safety outcomes) over thousands
  of stored runs, one record at a time (running moments + a
  deterministic quantile sketch for fleet-scale stores).
* :mod:`~repro.campaign.cli` -- ``python -m repro.campaign run <spec>``.
"""

from repro.campaign.aggregate import (
    QuantileSketch,
    RunningMoments,
    StreamingAggregator,
    campaign_table,
    safety_outcomes,
    safety_table,
    streaming_campaign_table,
)
from repro.campaign.engine import CampaignEngine, CampaignReport, run_campaign
from repro.campaign.sharding import (
    ShardSelector,
    all_shards,
    load_spec_or_shard,
    write_shard_manifests,
)
from repro.campaign.resilience import (
    FAIL_FAST,
    ResilienceConfig,
    RetryPolicy,
    TransientError,
    current_attempt,
    in_worker,
)
from repro.campaign.registry import (
    CampaignError,
    ScenarioSpec,
    campaign_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.campaign.spec import (
    CampaignSpec,
    RunManifest,
    cohort_patient,
    patient_from_params,
)
from repro.campaign.store import (
    MergeResult,
    ResultStore,
    SegmentInfo,
    load_errors,
    load_results,
)

__all__ = [
    "CampaignEngine",
    "CampaignError",
    "CampaignReport",
    "CampaignSpec",
    "FAIL_FAST",
    "MergeResult",
    "QuantileSketch",
    "ResilienceConfig",
    "ResultStore",
    "RetryPolicy",
    "RunManifest",
    "RunningMoments",
    "ScenarioSpec",
    "SegmentInfo",
    "ShardSelector",
    "StreamingAggregator",
    "TransientError",
    "all_shards",
    "campaign_scenario",
    "campaign_table",
    "cohort_patient",
    "current_attempt",
    "get_scenario",
    "in_worker",
    "list_scenarios",
    "load_errors",
    "load_results",
    "load_spec_or_shard",
    "patient_from_params",
    "register_scenario",
    "run_campaign",
    "safety_outcomes",
    "safety_table",
    "streaming_campaign_table",
    "write_shard_manifests",
]
