"""Aggregation of campaign records into the paper's analysis machinery.

Campaign records are flat dicts (``params`` + ``result``); this module
groups them along swept parameters and pushes the grouped metrics through
:mod:`repro.analysis.stats` / :mod:`repro.analysis.metrics` /
:mod:`repro.analysis.tables`, so the tables the benchmarks print over
dozens of in-process runs can be reproduced over thousands of stored ones.

There is one aggregation path, and it streams: :func:`campaign_table`
consumes records one at a time through :class:`RunningMoments` (Welford
count/mean/M2) and a deterministic :class:`QuantileSketch`, so a report
over a 10⁵-run store holds per-group state, never the records.  Below the
sketch capacity (4096 runs per group) the sketch retains the exact sample
and every statistic is :func:`~repro.analysis.stats.summarise` over it,
bit for bit; past capacity it degrades gracefully to Welford moments and
sketch quantiles (still deterministic: the sketch compacts by parity,
never randomness).  :func:`safety_outcomes` likewise folds each record
into its group's :class:`~repro.analysis.metrics.SafetyOutcome` as it
arrives.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
from types import SimpleNamespace

from repro.analysis.metrics import SafetyOutcome
from repro.analysis.stats import summarise
from repro.analysis.tables import Table
from repro.campaign.registry import CampaignError
from repro.campaign.spec import axis_id_value

GroupKey = Tuple[Any, ...]

STATISTICS = ("mean", "median", "min", "max", "std")


def _lookup(record: Mapping[str, Any], key: str) -> Any:
    """A grouping key may live in the params, the result, or the record itself.

    Structured values (dict/list axes such as a swept ``topology``) are
    rendered through :func:`~repro.campaign.spec.axis_id_value`, so group
    keys stay hashable and tables show the same content digest the run ids
    carry; scalar values pass through unchanged.
    """
    for source in (record.get("params", {}), record.get("result", {}), record):
        if key in source:
            value = source[key]
            if isinstance(value, (dict, list)):
                return axis_id_value(value)
            return value
    raise CampaignError(f"record {record.get('run_id')!r} has no field {key!r}")


def _group_key(record: Mapping[str, Any], by: Sequence[str]) -> GroupKey:
    return tuple(_lookup(record, field) for field in by)


def safety_outcomes(
    records: Iterable[Mapping[str, Any]],
    *,
    group_by: Sequence[str] = ("mode",),
) -> Dict[GroupKey, SafetyOutcome]:
    """PCA-style safety outcomes per group, folded one record at a time.

    Works for any scenario whose result records carry the PCA safety
    fields (``harmed``, ``respiratory_failure_events``, ...); each group
    accumulates exactly as :func:`~repro.analysis.metrics.aggregate_outcomes`
    does.
    """
    outcomes: Dict[GroupKey, SafetyOutcome] = {}
    for record in records:
        key = _group_key(record, group_by)
        outcomes.setdefault(key, SafetyOutcome()).add(
            SimpleNamespace(**record["result"]))
    return outcomes


def safety_table(
    records: Iterable[Mapping[str, Any]],
    *,
    group_by: Sequence[str] = ("mode",),
    title: str = "campaign safety outcomes",
    notes: Optional[str] = None,
) -> Table:
    """The E1-style safety table, computed from stored campaign records."""
    table = Table(
        title,
        list(group_by)
        + ["patients", "harmed", "harm_rate", "failure_events",
           "mean_time_spo2<90 (s)", "mean_drug (mg)", "mean_pain"],
        notes=notes,
    )
    for key, outcome in safety_outcomes(records, group_by=group_by).items():
        table.add_row(
            *key,
            outcome.patients,
            outcome.harmed,
            outcome.harm_rate,
            outcome.respiratory_failure_events,
            outcome.mean_time_in_danger_s,
            outcome.mean_drug_mg,
            outcome.mean_pain,
        )
    return table


# --------------------------------------------------------------- streaming
class RunningMoments:
    """Welford online count/mean/M2 (+ min/max), mergeable across shards.

    ``std`` matches the sample standard deviation (``ddof=1``) that
    :func:`~repro.analysis.stats.summarise` reports.  :meth:`merge` uses
    Chan's parallel update, so per-shard moments fold into campaign-wide
    moments without revisiting any record.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 below two observations."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return self.variance ** 0.5


class QuantileSketch:
    """Deterministic KLL-style quantile sketch, mergeable across shards.

    Values land in level 0; when a level overflows its ``capacity`` it is
    *compacted*: sorted, and alternating elements promoted one level up
    (each element at level *k* stands for ``2**k`` observations).  The
    alternation offset is the parity of that level's compaction count —
    no randomness anywhere, so the sketch is a pure function of the value
    sequence and identical on every rerun and hash seed.

    Below ``capacity`` total observations nothing has compacted and the
    sketch still holds the **exact sample in arrival order**
    (:attr:`exact` / :meth:`values`) — the campaign table exploits this
    to report exact :func:`~repro.analysis.stats.summarise` statistics on
    every bench-sized campaign, while 10⁵-run stores degrade gracefully to
    approximate quantiles with bounded memory.
    """

    __slots__ = ("capacity", "count", "_levels", "_compactions")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 8:
            raise CampaignError("sketch capacity must be >= 8")
        self.capacity = capacity
        self.count = 0
        self._levels: List[List[float]] = [[]]
        self._compactions: List[int] = [0]

    @property
    def exact(self) -> bool:
        """True while the sketch still holds every observation verbatim."""
        return len(self._levels) == 1

    def values(self) -> List[float]:
        """The exact retained sample, in arrival order (requires :attr:`exact`)."""
        if not self.exact:
            raise CampaignError(
                "sketch has compacted; the exact sample is gone")
        return list(self._levels[0])

    def add(self, value: float) -> None:
        self.count += 1
        self._levels[0].append(value)
        if len(self._levels[0]) > self.capacity:
            self._compact(0)

    def _compact(self, level: int) -> None:
        items = sorted(self._levels[level])
        offset = self._compactions[level] % 2
        self._compactions[level] += 1
        self._levels[level] = []
        if level + 1 == len(self._levels):
            self._levels.append([])
            self._compactions.append(0)
        self._levels[level + 1].extend(items[offset::2])
        if len(self._levels[level + 1]) > self.capacity:
            self._compact(level + 1)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in, preserving per-level weights."""
        self.count += other.count
        for level, items in enumerate(other._levels):
            while level >= len(self._levels):
                self._levels.append([])
                self._compactions.append(0)
            self._levels[level].extend(items)
        for level in range(len(self._levels)):
            if len(self._levels[level]) > self.capacity:
                self._compact(level)

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) of the weighted retained sample.

        Exact (numpy ``linear`` interpolation semantics) while
        :attr:`exact`; otherwise the weighted nearest-rank estimate over
        the compacted sample.
        """
        if not 0.0 <= q <= 1.0:
            raise CampaignError("quantile must be in [0, 1]")
        if self.count == 0:
            raise CampaignError("quantile of an empty sketch")
        if self.exact:
            ordered = sorted(self._levels[0])
            position = q * (len(ordered) - 1)
            low = int(position)
            high = min(low + 1, len(ordered) - 1)
            fraction = position - low
            return ordered[low] * (1.0 - fraction) + ordered[high] * fraction
        weighted: List[Tuple[float, int]] = []
        for level, items in enumerate(self._levels):
            weight = 1 << level
            for item in items:
                weighted.append((item, weight))
        weighted.sort(key=lambda pair: pair[0])
        total = sum(weight for _, weight in weighted)
        target = q * total
        cumulative = 0
        for item, weight in weighted:
            cumulative += weight
            if cumulative >= target:
                return item
        return weighted[-1][0]

    def median(self) -> float:
        return self.quantile(0.5)


class StreamingMetric:
    """Online state for one metric within one group (moments + sketch)."""

    __slots__ = ("moments", "sketch")

    def __init__(self, sketch_capacity: int) -> None:
        self.moments = RunningMoments()
        self.sketch = QuantileSketch(sketch_capacity)

    def add(self, value: float) -> None:
        self.moments.add(value)
        self.sketch.add(value)

    def merge(self, other: "StreamingMetric") -> None:
        self.moments.merge(other.moments)
        self.sketch.merge(other.sketch)

    def statistic(self, name: str) -> float:
        """One summary statistic; bit-identical to ``summarise`` while exact."""
        if self.moments.count == 0:
            return float("nan")
        if self.sketch.exact:
            # The retained sample is the full sample in arrival order:
            # summarise it exactly, subnormals and all.
            summary = summarise(self.sketch.values())
            return {
                "mean": summary.mean,
                "median": summary.median,
                "min": summary.minimum,
                "max": summary.maximum,
                "std": summary.std,
            }[name]
        if name == "mean":
            return self.moments.mean
        if name == "std":
            return self.moments.std
        if name == "min":
            return self.moments.minimum
        if name == "max":
            return self.moments.maximum
        if name == "median":
            return self.sketch.median()
        raise CampaignError(f"unknown statistic {name!r}")


class StreamingAggregator:
    """Record-at-a-time grouped aggregation with bounded memory.

    Feed records with :meth:`add` (or a whole iterable with
    :meth:`consume`); groups appear in first-seen order.  Per-shard
    aggregators :meth:`merge` into a campaign-wide one without revisiting
    records.
    """

    def __init__(
        self,
        *,
        group_by: Sequence[str],
        metrics: Sequence[str],
        sketch_capacity: int = 4096,
    ) -> None:
        self.group_by = tuple(group_by)
        self.metrics = tuple(metrics)
        self.sketch_capacity = sketch_capacity
        self.records = 0
        self._groups: Dict[GroupKey, Dict[str, Any]] = {}

    def _state(self, key: GroupKey) -> Dict[str, Any]:
        """This aggregator's own state for ``key``, created on first use."""
        state = self._groups.get(key)
        if state is None:
            state = {
                "runs": 0,
                "metrics": {metric: StreamingMetric(self.sketch_capacity)
                            for metric in self.metrics},
            }
            self._groups[key] = state
        return state

    def add(self, record: Mapping[str, Any]) -> None:
        state = self._state(_group_key(record, self.group_by))
        state["runs"] += 1
        self.records += 1
        for metric in self.metrics:
            value = record["result"].get(metric)
            if value is None:
                continue
            if isinstance(value, bool):
                value = 1.0 if value else 0.0
            if not isinstance(value, (int, float)):
                raise CampaignError(
                    f"result field {metric!r} is not numeric: {value!r}")
            state["metrics"][metric].add(float(value))

    def consume(self, records: Iterable[Mapping[str, Any]]) -> "StreamingAggregator":
        for record in records:
            self.add(record)
        return self

    def merge(self, other: "StreamingAggregator") -> None:
        if (other.group_by != self.group_by or other.metrics != self.metrics):
            raise CampaignError(
                "cannot merge streaming aggregators with different "
                "group_by/metrics")
        self.records += other.records
        for key, state in other._groups.items():
            # Fold into state of our own: adopting ``other``'s would let
            # later adds to either aggregator leak into the other.
            mine = self._state(key)
            mine["runs"] += state["runs"]
            for metric in self.metrics:
                mine["metrics"][metric].merge(state["metrics"][metric])

    def table(
        self,
        *,
        title: str = "campaign summary",
        statistic: str = "mean",
        notes: Optional[str] = None,
    ) -> Table:
        """One row per group, one ``<statistic>_<metric>`` column per metric."""
        if statistic not in STATISTICS:
            raise CampaignError(f"unknown statistic {statistic!r}")
        columns = (list(self.group_by) + ["runs"]
                   + [f"{statistic}_{metric}" for metric in self.metrics])
        table = Table(title, columns, notes=notes)
        for key, state in self._groups.items():
            row: List[Any] = list(key) + [state["runs"]]
            for metric in self.metrics:
                row.append(state["metrics"][metric].statistic(statistic))
            table.add_row(*row)
        return table


def campaign_table(
    records: Iterable[Mapping[str, Any]],
    *,
    group_by: Sequence[str],
    metrics: Sequence[str],
    title: str = "campaign summary",
    statistic: str = "mean",
    notes: Optional[str] = None,
    sketch_capacity: int = 4096,
) -> Table:
    """Summary table over a record stream: one row per group, one column
    per metric statistic.

    Never materialises ``records`` -- pass ``store.iter_records()`` and a
    100k-run store is reported in bounded memory.  While a group holds at
    most ``sketch_capacity`` runs its statistics are exactly
    :func:`~repro.analysis.stats.summarise` over its values; larger groups
    get Welford moments and sketch medians.
    """
    if statistic not in STATISTICS:
        raise CampaignError(f"unknown statistic {statistic!r}")
    aggregator = StreamingAggregator(
        group_by=group_by, metrics=metrics, sketch_capacity=sketch_capacity)
    return aggregator.consume(records).table(
        title=title, statistic=statistic, notes=notes)


#: The same function under the name ``perfbench/workloads.py`` imports.
streaming_campaign_table = campaign_table
