"""Sharded campaign execution, byte-identical merges, streaming aggregation.

The contract under test: a K-way sharded campaign — each shard run
independently, on any box, under any hash seed, possibly interrupted and
resumed — merges into a store byte-identical to a serial run of the whole
campaign, and ``campaign report`` aggregates it record-at-a-time with
tables equal to ``summarise`` over each group's values.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    QuantileSketch,
    ResultStore,
    RunningMoments,
    ShardSelector,
    all_shards,
    campaign_table,
    load_results,
    load_spec_or_shard,
    run_campaign,
    streaming_campaign_table,
    write_shard_manifests,
)
from repro.analysis.stats import summarise
from repro.campaign.aggregate import STATISTICS, StreamingAggregator
from repro.campaign.cli import main as campaign_main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Short but non-trivial simulated duration for PCA-backed campaign tests.
SHORT_PCA = {"duration_s": 600.0}


#: The value that makes :func:`_damage_json` delete an entry.
DROP = object()


def _damage_json(file, path, value):
    """Set the entry of JSON ``file`` at key ``path`` to ``value``.

    An empty ``path`` replaces the whole document; ``value`` :data:`DROP`
    deletes the entry instead.
    """
    document = json.loads(file.read_text(encoding="utf-8"))
    if not path:
        document = value
    else:
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    file.write_text(json.dumps(document), encoding="utf-8")


def tiny_spec(**overrides):
    base = dict(
        name="shard-campaign",
        scenario="pca",
        parameters={"mode": ["open_loop", "closed_loop"], **SHORT_PCA},
        cohort_size=2,
        repeats=2,
        base_seed=123,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestShardSelector:
    def test_parse_and_label(self):
        shard = ShardSelector.parse("2/4")
        assert (shard.index, shard.count) == (2, 4)
        assert shard.label == "2/4"
        assert shard.file_stem() == "shard-02-of-04"

    @pytest.mark.parametrize("text", ["0/4", "5/4", "2", "2-4", "a/b", "/4"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(CampaignError):
            ShardSelector.parse(text)

    @pytest.mark.parametrize("total,count", [(8, 2), (10, 3), (5, 5), (3, 7)])
    def test_partition_is_disjoint_and_complete(self, total, count):
        seen = []
        for shard in all_shards(count):
            seen.extend(shard.run_indices(total))
        assert sorted(seen) == list(range(total))
        assert len(seen) == total  # no run owned twice

    def test_contiguous_blocks_are_consecutive(self):
        indices = ShardSelector(2, 3).run_indices(10)
        assert indices == list(range(indices[0], indices[0] + len(indices)))

    def test_from_block_rejects_unknown_fields(self):
        block = {**ShardSelector(1, 2).manifest_block(5), "bogus": 3}
        with pytest.raises(CampaignError, match=r"here: unknown shard fields: \['bogus'\]"):
            ShardSelector.from_block(block, "here")

    def test_manifest_block_records_explicit_indices(self):
        block = ShardSelector(1, 2).manifest_block(5)
        assert block["run_indices"] == [0, 1, 2]
        assert block["total_runs"] == 5

    def test_from_block_inverts_manifest_block(self):
        block = json.loads(json.dumps(ShardSelector(2, 3).manifest_block(10)))
        assert ShardSelector.from_block(block, "here") == (
            ShardSelector(2, 3), 10, (4, 5, 6))


class TestShardManifests:
    def test_write_and_load_round_trip(self, tmp_path):
        spec = tiny_spec()
        written = write_shard_manifests(spec, tmp_path / "shards", 3)
        assert [path.name for path, _, _ in written] == [
            "shard-01-of-03.json", "shard-02-of-03.json", "shard-03-of-03.json"]
        assert sum(runs for _, _, runs in written) == spec.grid_size()
        loaded_spec, shard = load_spec_or_shard(written[1][0])
        assert loaded_spec.as_dict() == spec.as_dict()
        assert shard == ShardSelector(2, 3)

    def test_plain_spec_loads_without_shard(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec().as_dict()), encoding="utf-8")
        spec, shard = load_spec_or_shard(path)
        assert shard is None
        assert spec.grid_size() == tiny_spec().grid_size()

    @pytest.mark.parametrize("field, path, value", [
        ("shard block", ("shard",), None),
        ("'count'", ("shard", "count"), float("inf")),
        ("'index'", ("shard", "index"), 1.5),
        ("'index'", ("shard", "index"), True),
        ("'index'", ("shard", "index"), "2"),
        ("'strategy'", ("shard", "strategy"), "contiguous"),
        ("'run_indices'", ("shard", "run_indices"), [4, 5]),
        ("'run_indices'", ("shard", "total_runs"), 10 ** 20),  # no huge range built
        # Consistent with shard 2/2 of 6 runs, but the spec expands to 8.
        ("'total_runs'", ("shard",), {"index": 2, "count": 2, "total_runs": 6,
                                      "run_indices": [3, 4, 5]}),
    ])
    def test_damaged_shard_manifest_names_file_and_field(self, tmp_path, field,
                                                        path, value):
        spec = tiny_spec()  # 8 runs
        manifest, _shard, _runs = write_shard_manifests(spec, tmp_path, 2)[1]
        _damage_json(manifest, path, value)
        with pytest.raises(CampaignError) as error:
            load_spec_or_shard(manifest)
        assert str(error.value).startswith(f"shard manifest {manifest}: ")
        assert field in str(error.value)


def _run_shards(spec, directory, count, workers=1):
    segments = []
    for shard in all_shards(count):
        segment = directory / f"seg-{shard.index}"
        run_campaign(spec, directory=segment, shard=shard, workers=workers)
        segments.append(segment)
    return segments


class TestShardMergeByteEquality:
    def test_merged_identical_to_serial(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, directory=tmp_path / "serial")
        segments = _run_shards(spec, tmp_path, 3)
        result = ResultStore(tmp_path / "merged").merge(segments)
        assert result.complete
        assert result.records == spec.grid_size()
        serial = (tmp_path / "serial" / "results.jsonl").read_bytes()
        merged = (tmp_path / "merged" / "results.jsonl").read_bytes()
        assert merged == serial
        # The merged manifest carries no shard block: it IS the serial one.
        assert ((tmp_path / "merged" / "manifest.json").read_bytes()
                == (tmp_path / "serial" / "manifest.json").read_bytes())

    def test_uneven_shard_count_still_exact(self, tmp_path):
        spec = tiny_spec()  # 8 runs across 5 shards: blocks of 2,2,2,1,1
        run_campaign(spec, directory=tmp_path / "serial")
        segments = _run_shards(spec, tmp_path, 5)
        ResultStore(tmp_path / "merged").merge(segments)
        assert ((tmp_path / "merged" / "results.jsonl").read_bytes()
                == (tmp_path / "serial" / "results.jsonl").read_bytes())

    def test_parallel_sharded_workers_still_exact(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, directory=tmp_path / "serial")
        segments = _run_shards(spec, tmp_path, 2, workers=2)
        ResultStore(tmp_path / "merged").merge(segments)
        assert ((tmp_path / "merged" / "results.jsonl").read_bytes()
                == (tmp_path / "serial" / "results.jsonl").read_bytes())

    def test_shard_index_content_hashes(self, tmp_path):
        import hashlib
        spec = tiny_spec()
        segments = _run_shards(spec, tmp_path, 2)
        result = ResultStore(tmp_path / "merged").merge(segments)
        index = json.loads(
            (tmp_path / "merged" / "shard_index.json").read_text())
        assert index["schema"] == 1
        assert index["shard_count"] == 2
        assert index["merged_records"] == spec.grid_size()
        assert index["merged_sha256"] == result.merged_sha256
        merged_bytes = (tmp_path / "merged" / "results.jsonl").read_bytes()
        assert hashlib.sha256(merged_bytes).hexdigest() == result.merged_sha256
        for entry, segment in zip(index["segments"], segments):
            segment_bytes = (segment / "results.jsonl").read_bytes()
            assert entry["sha256"] == hashlib.sha256(segment_bytes).hexdigest()


class TestShardMergeValidation:
    def test_missing_shard_named(self, tmp_path):
        spec = tiny_spec()
        segments = _run_shards(spec, tmp_path, 3)
        with pytest.raises(CampaignError, match=r"missing shard\(s\) 2/3"):
            ResultStore(tmp_path / "merged").merge(
                [segments[0], segments[2]])

    def test_allow_partial_reports_missing_runs(self, tmp_path):
        spec = tiny_spec()
        segments = _run_shards(spec, tmp_path, 3)
        result = ResultStore(tmp_path / "merged").merge(
            [segments[0], segments[2]], allow_partial=True)
        assert not result.complete
        owned_by_2 = ShardSelector(2, 3).run_indices(spec.grid_size())
        assert result.missing == owned_by_2
        kept = load_results(tmp_path / "merged")
        assert [r["run_index"] for r in kept] == sorted(
            set(range(spec.grid_size())) - set(owned_by_2))

    def test_duplicate_shard_rejected(self, tmp_path):
        spec = tiny_spec()
        segments = _run_shards(spec, tmp_path, 2)
        with pytest.raises(CampaignError, match="twice"):
            ResultStore(tmp_path / "merged").merge(
                [segments[0], segments[0]])

    def test_mismatched_spec_rejected(self, tmp_path):
        seg_a = tmp_path / "a"
        seg_b = tmp_path / "b"
        run_campaign(tiny_spec(), directory=seg_a, shard=ShardSelector(1, 2))
        run_campaign(tiny_spec(base_seed=999), directory=seg_b,
                     shard=ShardSelector(2, 2))
        with pytest.raises(CampaignError, match="different campaign spec"):
            ResultStore(tmp_path / "merged").merge([seg_a, seg_b])

    def test_plain_store_is_not_a_segment(self, tmp_path):
        run_campaign(tiny_spec(), directory=tmp_path / "plain")
        with pytest.raises(CampaignError, match="shard block"):
            ResultStore(tmp_path / "merged").merge([tmp_path / "plain"])

    def test_output_cannot_be_a_segment(self, tmp_path):
        segments = _run_shards(tiny_spec(), tmp_path, 2)
        with pytest.raises(CampaignError, match="cannot also be a segment"):
            ResultStore(segments[0]).merge(segments)

    def test_resume_with_different_shard_rejected(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, directory=tmp_path / "seg",
                     shard=ShardSelector(1, 2))
        with pytest.raises(CampaignError, match="holds shard 1/2"):
            run_campaign(spec, directory=tmp_path / "seg",
                         shard=ShardSelector(2, 2), resume=True)

    def test_resume_of_a_segment_with_a_strategy_field_rejected(self, tmp_path):
        spec = tiny_spec()
        segment = tmp_path / "seg"
        run_campaign(spec, directory=segment, shard=ShardSelector(1, 2))
        _damage_json(segment / "manifest.json", ("shard", "strategy"), "contiguous")
        with pytest.raises(CampaignError, match=(
                f"campaign directory {segment}: unknown shard fields: "
                r"\['strategy'\]")):
            run_campaign(spec, directory=segment, shard=ShardSelector(1, 2),
                         resume=True)




@pytest.fixture(scope="module")
def two_segments(tmp_path_factory):
    """A finished 2-shard campaign, shared read-only by the damage cases."""
    base = tmp_path_factory.mktemp("two-segments")
    return _run_shards(tiny_spec(repeats=1), base, 2)


class TestDamagedSegmentManifest:
    """Merge is total: every way a segment manifest can be damaged raises
    a CampaignError that names the segment and the field."""

    @pytest.fixture
    def segments(self, two_segments, tmp_path):
        """A private copy of the shared segments, free to damage."""
        copies = [tmp_path / segment.name for segment in two_segments]
        for source, copy in zip(two_segments, copies):
            shutil.copytree(source, copy)
        return copies

    @pytest.mark.parametrize("field, path, value", [
        ("'total_runs'", ("shard", "total_runs"), DROP),
        ("'run_indices'", ("shard", "run_indices"), DROP),
        ("'count'", ("shard", "count"), DROP),
        ("JSON object", (), []),
        ("'index'", ("shard", "index"), "a"),
        ("'spec'", ("spec",), DROP),
        ("'runs'", ("runs",), DROP),
        ("'run_index'", ("runs", 0, "run_index"), DROP),
        ("'run_indices'", ("shard", "run_indices"), "01"),
        ("'run_indices'", ("shard", "run_indices"), [2]),
        ("'strategy'", ("shard", "strategy"), "contiguous"),
        ("shard block", ("shard",), None),
    ])
    def test_names_segment_and_field(self, segments, tmp_path, field, path, value):
        _damage_json(segments[1] / "manifest.json", path, value)
        with pytest.raises(CampaignError) as error:
            ResultStore(tmp_path / "merged").merge(segments)
        assert str(error.value).startswith(f"segment {segments[1]}")
        assert field in str(error.value)
        assert not (tmp_path / "merged" / "results.jsonl").exists()

    def test_torn_manifest_named(self, segments, tmp_path):
        (segments[1] / "manifest.json").write_text('{"spec": {', encoding="utf-8")
        with pytest.raises(CampaignError, match=(
                f"segment {segments[1]}: manifest.json is not valid JSON")):
            ResultStore(tmp_path / "merged").merge(segments)

    def test_record_without_run_index_named(self, segments, tmp_path):
        with open(segments[0] / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"result": {}}\n')
        with pytest.raises(CampaignError, match=(
                f"segment {segments[0]}: a results.jsonl record has no "
                "integer 'run_index'")):
            ResultStore(tmp_path / "merged").merge(segments)


class TestShardResumeAndRepair:
    def test_interrupted_shard_resumes_then_merges_exactly(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, directory=tmp_path / "serial")
        segments = _run_shards(spec, tmp_path, 2)
        # Interrupt shard 2 after the fact: drop its last record and tear
        # the new tail, exactly what a crash mid-append leaves behind.
        victim = segments[1] / "results.jsonl"
        lines = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text("\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]),
                          encoding="utf-8")
        with pytest.raises(CampaignError, match="missing"):
            ResultStore(tmp_path / "merged").merge(segments)
        run_campaign(spec, directory=segments[1],
                     shard=ShardSelector(2, 2), resume=True)
        ResultStore(tmp_path / "merged2").merge(segments)
        assert ((tmp_path / "merged2" / "results.jsonl").read_bytes()
                == (tmp_path / "serial" / "results.jsonl").read_bytes())

    def test_interior_corruption_repairs_per_segment(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, directory=tmp_path / "serial")
        segments = _run_shards(spec, tmp_path, 2)
        victim = segments[0] / "results.jsonl"
        lines = victim.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:10] + "\x00GARBAGE" + lines[1][10:]
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # The merge refuses (a run is unreadable) and the partial path
        # reports exactly one skipped line on the damaged segment.
        with pytest.raises(CampaignError, match="missing 1 run"):
            ResultStore(tmp_path / "merged").merge(segments)
        partial = ResultStore(tmp_path / "partial").merge(
            segments, allow_partial=True)
        assert partial.segments[0].skipped_lines == 1
        # repair() + resume on the damaged segment restores the record...
        store = ResultStore(segments[0])
        store.repair()
        assert store.last_repair_skipped == {"results.jsonl": 1}
        run_campaign(spec, directory=segments[0],
                     shard=ShardSelector(1, 2), resume=True)
        # ...and the merge is byte-identical again.
        ResultStore(tmp_path / "merged2").merge(segments)
        assert ((tmp_path / "merged2" / "results.jsonl").read_bytes()
                == (tmp_path / "serial" / "results.jsonl").read_bytes())


_CLI_SHARD_SCRIPT = """
import json, sys
from pathlib import Path
from repro.campaign.cli import main

base = Path({base!r})
spec = base / "spec.json"
spec.write_text(json.dumps({spec_dict!r}))
for index in (1, 2, 3):
    code = main(["run", str(spec), "--shard", f"{{index}}/3",
                 "--out", str(base / {out!r} / f"seg-{{index}}"), "--quiet"])
    assert code == 0, code
"""


class TestHashSeedIndependence:
    """Shards run in different interpreters under different hash seeds
    must still merge into the serial golden, byte for byte."""

    def _run_cli(self, script, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script],
                       capture_output=True, text=True, env=env, check=True)

    def test_merge_identical_across_hash_seeds(self, tmp_path):
        spec = tiny_spec(repeats=1)  # 4 runs: keep the subprocess leg fast
        spec_dict = spec.as_dict()
        for out, seed in (("seed0", "0"), ("seed4242", "4242")):
            script = _CLI_SHARD_SCRIPT.format(
                base=str(tmp_path), spec_dict=spec_dict, out=out)
            self._run_cli(script, seed)
        merged = {}
        for out in ("seed0", "seed4242"):
            segments = [str(tmp_path / out / f"seg-{i}") for i in (1, 2, 3)]
            code = campaign_main(
                ["merge", *segments, "--out", str(tmp_path / out / "merged"),
                 "--quiet"])
            assert code == 0
            merged[out] = (tmp_path / out / "merged" /
                           "results.jsonl").read_bytes()
        run_campaign(spec, directory=tmp_path / "serial")
        serial = (tmp_path / "serial" / "results.jsonl").read_bytes()
        assert merged["seed0"] == merged["seed4242"] == serial


class TestStreamingAggregation:
    def _records(self, tmp_path):
        directory = tmp_path / "store"
        run_campaign(tiny_spec(), directory=directory)
        return directory, load_results(directory)

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_tables_bit_identical_to_materialised(self, tmp_path, statistic):
        # Oracle: every cell equals summarise() over the group's values.
        directory, records = self._records(tmp_path)
        metrics = ["harmed", "total_drug_delivered_mg", "min_spo2"]
        table = campaign_table(
            ResultStore(directory).iter_records(),
            group_by=["mode"], metrics=metrics, statistic=statistic)
        field = {"min": "minimum", "max": "maximum"}.get(statistic, statistic)
        assert [row[0] for row in table.rows] == ["open_loop", "closed_loop"]
        for row in table.rows:
            group = [r["result"] for r in records if r["params"]["mode"] == row[0]]
            assert row[1] == len(group)
            for metric, cell in zip(metrics, row[2:]):
                values = [float(result[metric]) for result in group]
                assert cell == getattr(summarise(values), field)

    def test_one_table_path(self):
        assert campaign_table is streaming_campaign_table

    def test_iter_records_streams_in_file_order(self, tmp_path):
        directory, records = self._records(tmp_path)
        streamed = list(ResultStore(directory).iter_records())
        assert streamed == records
        head = ResultStore(directory).head_records(3)
        assert head == records[:3]

    def test_merged_aggregators_match_single_pass(self, tmp_path):
        directory, records = self._records(tmp_path)
        whole = StreamingAggregator(group_by=["mode"], metrics=["min_spo2"])
        whole.consume(records)
        left = StreamingAggregator(group_by=["mode"], metrics=["min_spo2"])
        right = StreamingAggregator(group_by=["mode"], metrics=["min_spo2"])
        left.consume(records[: len(records) // 2])
        right.consume(records[len(records) // 2:])
        left.merge(right)
        for statistic in ("mean", "min", "max"):
            merged_rows = left.table(statistic=statistic).rows
            whole_rows = whole.table(statistic=statistic).rows
            for merged_row, whole_row in zip(merged_rows, whole_rows):
                assert merged_row[:-1] == whole_row[:-1]
                assert merged_row[-1] == pytest.approx(whole_row[-1])

    def test_merge_does_not_alias_the_other_aggregators_state(self):
        left = StreamingAggregator(group_by=["scenario"], metrics=["a"])
        right = StreamingAggregator(group_by=["scenario"], metrics=["a"])
        right.add({"scenario": "s", "result": {"a": 1.0}})
        left.merge(right)
        left.add({"scenario": "s", "result": {"a": 3.0}})
        assert [list(row) for row in right.table().rows] == [["s", 1, 1.0]]
        assert [list(row) for row in left.table().rows] == [["s", 2, 2.0]]


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.normal(10.0, 3.0, size=500)
        moments = RunningMoments()
        for value in values:
            moments.add(float(value))
        assert moments.count == 500
        assert moments.mean == pytest.approx(float(values.mean()))
        assert moments.std == pytest.approx(float(values.std(ddof=1)))
        assert moments.minimum == float(values.min())
        assert moments.maximum == float(values.max())

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(2.0, size=301)
        whole = RunningMoments()
        for value in values:
            whole.add(float(value))
        left, right = RunningMoments(), RunningMoments()
        for value in values[:120]:
            left.add(float(value))
        for value in values[120:]:
            right.add(float(value))
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean)
        assert left.std == pytest.approx(whole.std)


class TestQuantileSketch:
    def test_exact_below_capacity(self):
        sketch = QuantileSketch(capacity=64)
        values = [float(v) for v in range(50)]
        for value in values:
            sketch.add(value)
        assert sketch.exact
        assert sketch.values() == values
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert sketch.quantile(q) == pytest.approx(
                float(np.quantile(values, q)))

    def test_deterministic_beyond_capacity(self):
        def build():
            sketch = QuantileSketch(capacity=32)
            for value in range(1000):
                sketch.add(float(value * 7919 % 1000))
            return sketch
        a, b = build(), build()
        assert not a.exact
        assert a._levels == b._levels  # identical compaction, no randomness
        assert a.quantile(0.5) == b.quantile(0.5)

    def test_approximate_quantiles_bounded_error(self):
        sketch = QuantileSketch(capacity=256)
        n = 20_000
        for value in range(n):
            sketch.add(float(value))
        assert sketch.count == n
        for q in (0.1, 0.5, 0.9):
            assert sketch.quantile(q) == pytest.approx(q * n, rel=0.10)

    def test_merge_preserves_weight(self):
        left = QuantileSketch(capacity=64)
        right = QuantileSketch(capacity=64)
        for value in range(500):
            left.add(float(value))
            right.add(float(value + 500))
        left.merge(right)
        assert left.count == 1000
        assert left.quantile(0.5) == pytest.approx(500.0, rel=0.15)

    def test_rejects_bad_input(self):
        with pytest.raises(CampaignError):
            QuantileSketch(capacity=2)
        sketch = QuantileSketch()
        with pytest.raises(CampaignError):
            sketch.quantile(0.5)  # empty
        sketch.add(1.0)
        with pytest.raises(CampaignError):
            sketch.quantile(1.5)


class TestShardCLI:
    def test_shard_then_run_manifest_then_merge(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(repeats=1).as_dict()),
                             encoding="utf-8")
        assert campaign_main(["shard", str(spec_path), "--count", "2",
                              "--out", str(tmp_path / "shards"),
                              "--quiet"]) == 0
        for index in (1, 2):
            manifest = tmp_path / "shards" / f"shard-0{index}-of-02.json"
            assert campaign_main(["run", str(manifest),
                                  "--out", str(tmp_path / f"seg-{index}"),
                                  "--quiet"]) == 0
        assert campaign_main(
            ["merge", str(tmp_path / "seg-1"), str(tmp_path / "seg-2"),
             "--out", str(tmp_path / "merged"), "--quiet"]) == 0
        run_campaign(tiny_spec(repeats=1), directory=tmp_path / "serial")
        assert ((tmp_path / "merged" / "results.jsonl").read_bytes()
                == (tmp_path / "serial" / "results.jsonl").read_bytes())
        assert (tmp_path / "merged" / "shard_index.json").exists()

    def test_run_rejects_conflicting_shard_flags(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().as_dict()),
                             encoding="utf-8")
        campaign_main(["shard", str(spec_path), "--count", "2",
                       "--out", str(tmp_path / "shards"), "--quiet"])
        manifest = tmp_path / "shards" / "shard-01-of-02.json"
        assert campaign_main(["run", str(manifest), "--shard", "2/2",
                              "--quiet"]) == 2

    def test_report_streams_merged_store(self, tmp_path, capsys):
        spec = tiny_spec(repeats=1)
        segments = _run_shards(spec, tmp_path, 2)
        campaign_main(["merge", str(segments[0]), str(segments[1]),
                       "--out", str(tmp_path / "merged"), "--quiet"])
        assert campaign_main(["report", str(tmp_path / "merged"),
                              "--group-by", "mode"]) == 0
        out = capsys.readouterr().out
        assert "open_loop" in out and "closed_loop" in out
