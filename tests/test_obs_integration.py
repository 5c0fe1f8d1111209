"""Integration tests for observability across the simulation stack.

Pins the three contracts the observability PR must not break:

* **Determinism**: enabling metrics/spans changes *no* simulation output —
  every golden digest (kernel workload, PCA probe, all five campaign
  results files) is byte-identical with observability on.
* **Export determinism**: the NDJSON snapshot's line ordering and its
  sim-deterministic values are identical across ``PYTHONHASHSEED`` values
  (wall-clock-derived values are legitimately run-dependent and excluded).
* **CLI**: ``--json`` / ``--quiet`` output modes and ``--metrics-out``
  produce a merged snapshot carrying kernel, channel, and campaign
  metrics, serial and sharded alike.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.obs import metrics as obsm
from repro.obs.export import read_snapshot
from repro.obs.spans import tracer
from repro.sim.channel import Channel
from repro.sim.kernel import Simulator

from golden_workload import (
    GOLDEN_PATH,
    SCENARIO_SPECS,
    campaign_capture,
    campaign_results_digest,
    counting_work,
    kernel_workload,
    pca_system_probe,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def obs_on():
    """Enable observability, restoring the prior switch state afterwards."""
    was_enabled = obsm.enabled()
    obsm.enable()
    obsm.registry().reset()
    tracer().reset()
    yield obsm.registry()
    obsm.registry().reset()
    tracer().reset()
    if not was_enabled:
        obsm.disable()


@pytest.fixture
def obs_off():
    """Force-disable observability (even under REPRO_OBS=1 CI runs)."""
    was_enabled = obsm.enabled()
    obsm.disable()
    yield
    if was_enabled:
        obsm.enable()


def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenInvariance:
    """Metric values never feed back into simulation state."""

    def test_default_is_disabled(self):
        if os.environ.get("REPRO_OBS"):
            pytest.skip("suite is running with REPRO_OBS set")
        # Fresh interpreter: no enable() calls from earlier tests.
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import metrics; print(metrics.enabled())"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.stdout.strip() == "False"

    def test_kernel_workload_digest_unchanged_with_obs_enabled(self, obs_on):
        assert kernel_workload() == golden()["kernel_workload"]

    def test_kernel_workload_digest_unchanged_with_obs_disabled(self, obs_off):
        assert kernel_workload() == golden()["kernel_workload"]

    def test_pca_probe_unchanged_with_obs_enabled(self, obs_on):
        assert pca_system_probe() == golden()["pca_system"]

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIO_SPECS))
    def test_campaign_digest_unchanged_with_obs_enabled(
            self, scenario_key, obs_on, tmp_path):
        digest = campaign_results_digest(scenario_key, tmp_path)
        assert digest == golden()["campaigns"][scenario_key]


class TestWorkCounterCapture:
    """The golden work-counter capture instruments only its own block."""

    @staticmethod
    def _state():
        return (obsm.enabled(), obsm.registry(), tracer(),
                Simulator.__dict__["run"], Channel.__dict__["__init__"])

    @staticmethod
    def _assert_restored(before):
        after = TestWorkCounterCapture._state()
        assert after[0] == before[0]
        assert all(now is then for now, then in zip(after[1:], before[1:]))

    @pytest.mark.parametrize("switch", ["obs_on", "obs_off"])
    def test_capture_leaves_no_trace(self, switch, request, tmp_path):
        request.getfixturevalue(switch)
        before = self._state()
        snapshot = obsm.registry().snapshot()
        spans = list(tracer().spans)
        digest, counters = campaign_capture("pca_faulted", tmp_path / "run")
        self._assert_restored(before)
        assert obsm.registry().snapshot() == snapshot
        assert tracer().spans == spans
        # The same counters whether or not observability was already on.
        assert digest == golden()["campaigns"]["pca_faulted"]
        assert counters == golden()["work_counters"]["pca_faulted"]
        # What is built afterwards is instrumented only if the switch says so.
        sim = Simulator()
        channel = Channel(sim, "uplink:after")
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim._profiler is None
        assert (channel._obs is None) == (switch == "obs_off")

    def test_capture_restores_state_when_the_block_raises(self):
        before = self._state()
        with pytest.raises(RuntimeError, match="inside the block"):
            with counting_work():
                raise RuntimeError("inside the block")
        self._assert_restored(before)


#: Wall-clock-derived metric names whose *values* legitimately vary run to
#: run; their presence and position must still be deterministic.
_WALL_DEPENDENT = {
    "kernel.wall_seconds_total", "kernel.events_per_s",
    "kernel.sim_s_per_wall_s", "campaign.run_wall_s",
    "campaign.wall_seconds_total", "campaign.worker_utilisation",
}

_EXPORT_SCRIPT = """
import json
from repro.obs import metrics, export
from repro.obs.spans import tracer
metrics.enable()
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=600.0,
                                    seed=99)).run()
print(export.dump_lines(export.snapshot_lines()), end="")
"""


class TestExportDeterminism:
    def _snapshot(self, hash_seed: str):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_OBS", None)
        out = subprocess.run([sys.executable, "-c", _EXPORT_SCRIPT],
                             capture_output=True, text=True, env=env,
                             check=True)
        return out.stdout.splitlines()

    def test_snapshot_ordering_identical_across_hash_seeds(self):
        lines_0 = self._snapshot("0")
        lines_4242 = self._snapshot("4242")
        parsed_0 = [json.loads(line) for line in lines_0]
        parsed_4242 = [json.loads(line) for line in lines_4242]
        assert len(parsed_0) > 10, "workload produced a trivial snapshot"

        def identity(line):
            return (line.get("type"), line.get("name"),
                    line.get("trace_id"), line.get("span_id"),
                    line.get("owner"))

        # Line ordering (and per-line key ordering, since we compare raw
        # text below) is identical under both hash seeds.
        assert [identity(l) for l in parsed_0] == \
               [identity(l) for l in parsed_4242]

        # Every sim-deterministic line is byte-identical; wall-derived
        # metrics and wall-clock spans differ only in their float values.
        for raw_0, raw_4242, line in zip(lines_0, lines_4242, parsed_0):
            if line.get("name") in _WALL_DEPENDENT:
                continue
            if line.get("type") == "span" and line.get("clock") != "sim":
                continue
            assert raw_0 == raw_4242, f"line drifted: {line}"

    def test_sim_spans_have_deterministic_endpoints(self):
        parsed = [json.loads(line) for line in self._snapshot("0")]
        sim_spans = [l for l in parsed
                     if l.get("type") == "span" and l.get("clock") == "sim"]
        assert sim_spans, "PCA run produced no sim-time spans"
        names = {span["name"] for span in sim_spans}
        assert {"pca:setup", "pca:simulate", "pca:collect",
                "pca:run"} <= names
        simulate = next(s for s in sim_spans if s["name"] == "pca:simulate")
        assert simulate["end"] == 600.0


def tiny_spec_file(tmp_path, name="obs-cli") -> Path:
    spec = {
        "name": name,
        "scenario": "pca",
        "parameters": {"mode": ["open_loop", "closed_loop"],
                       "duration_s": 600.0},
        "cohort_size": 2,
        "base_seed": 123,
    }
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


class TestCliOutputModes:
    def test_list_json_mode_is_ndjson(self, capsys):
        assert campaign_main(["list", "--json"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert all(line["event"] == "scenario" for line in lines)
        assert {"pca", "xray_vent"} <= {line["name"] for line in lines}

    def test_list_human_mode_unchanged(self, capsys):
        assert campaign_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pca" in out
        assert "parameters:" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.splitlines()[0])

    def test_quiet_and_json_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            campaign_main(["list", "--quiet", "--json"])

    def test_run_quiet_suppresses_stdout(self, tmp_path, capsys, obs_off):
        spec = tiny_spec_file(tmp_path)
        assert campaign_main(["run", str(spec), "--quiet",
                              "--metrics", ""]) == 0
        captured = capsys.readouterr()
        # --metrics "" means no summary table either: nothing at all.
        assert captured.out == ""

    def test_run_json_emits_progress_and_table_events(self, tmp_path, capsys,
                                                      obs_off):
        spec = tiny_spec_file(tmp_path)
        assert campaign_main(["run", str(spec), "--json"]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "campaign-start"
        assert kinds.count("progress") == 4
        assert "campaign-done" in kinds
        table = next(e for e in events if e["event"] == "table")
        assert table["columns"][0] == "mode"
        assert len(table["rows"]) == 2

    def test_report_error_is_json_on_stderr(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert campaign_main(["report", str(empty), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["event"] == "report-empty"


class TestCliMetricsOut:
    def _restore_obs(self):
        # --metrics-out enables obs process-wide; tests must undo that.
        obsm.disable()
        obsm.registry().reset()
        tracer().reset()

    def _run(self, tmp_path, *extra):
        spec = tiny_spec_file(tmp_path)
        metrics_path = tmp_path / "metrics.ndjson"
        try:
            status = campaign_main(["run", str(spec), "--quiet",
                                    "--metrics-out", str(metrics_path),
                                    *extra])
            assert status == 0
            return read_snapshot(metrics_path)
        finally:
            self._restore_obs()

    @staticmethod
    def by_name(lines):
        return {line["name"]: line for line in lines if "name" in line}

    def test_serial_snapshot_has_all_layers(self, tmp_path):
        lines = self._run(tmp_path)
        names = self.by_name(lines)
        # Kernel, channel, and per-run engine metrics all present.
        assert names["kernel.events_fired"]["value"] > 0
        assert names["channel.delivered"]["value"] > 0
        assert names["campaign.runs"]["value"] == 4
        assert names["campaign.run_wall_s"]["count"] == 4
        assert names["campaign.workers"]["value"] == 1.0
        assert 0.0 < names["campaign.worker_utilisation"]["value"] <= 1.0
        assert any(line.get("type") == "span" for line in lines)

    def test_sharded_snapshot_matches_serial_counts(self, tmp_path):
        serial = self.by_name(self._run(tmp_path / "serial"))
        sharded_lines = self._run(tmp_path / "sharded", "--workers", "2")
        sharded = self.by_name(sharded_lines)
        meta = next(line for line in sharded_lines
                    if line["type"] == "meta")
        assert meta["merged_shards"] >= 2  # parent + worker shard(s)
        # Sim-deterministic totals are identical however the work shards.
        for name in ("kernel.events_fired", "kernel.sim_seconds_total",
                     "channel.delivered", "channel.sent", "bus.published",
                     "bus.forwarded", "campaign.runs",
                     "sampler.flushed_samples"):
            assert sharded[name]["value"] == serial[name]["value"], name
        assert sharded["campaign.workers"]["value"] == 2.0
        # Worker snapshots travel over the pipes: nothing is written beside
        # the merged file.
        assert not (tmp_path / "sharded" / "metrics.ndjson.shards").exists()

    def test_workers_count_only_their_own_runs(self, tmp_path):
        # A forked worker starts with a copy of this process's registry; its
        # snapshot must not bring that copy into the merge a second time.
        obsm.enable()
        try:
            run_campaign(CampaignSpec(name="before", scenario="chaos", repeats=4))
            metrics_path = tmp_path / "metrics.ndjson"
            run_campaign(CampaignSpec(name="after", scenario="chaos", repeats=4),
                         workers=2, metrics_out=metrics_path)
            names = self.by_name(read_snapshot(metrics_path))
        finally:
            self._restore_obs()
        # The registry is process-wide: 4 earlier runs here plus these 4.
        assert names["campaign.runs"]["value"] == 8


class TestResilienceMetrics:
    """Retry/quarantine/fault counters ride the campaign metrics merge."""

    def _restore_obs(self):
        obsm.disable()
        obsm.registry().reset()
        tracer().reset()

    def _chaos_spec_file(self, tmp_path):
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "name": "chaos-metrics", "scenario": "chaos",
            "parameters": {"raise_at": "1", "flaky_at": "2"},
            "repeats": 5, "base_seed": 3,
        }), encoding="utf-8")
        return path

    def _run(self, tmp_path, label, *extra):
        metrics_path = tmp_path / f"{label}.ndjson"
        try:
            assert campaign_main(["run", str(self._chaos_spec_file(tmp_path)),
                                  "--quiet", "--isolate-failures",
                                  "--metrics-out", str(metrics_path),
                                  *extra]) == 0
            return TestCliMetricsOut.by_name(read_snapshot(metrics_path))
        finally:
            self._restore_obs()

    def test_serial_counters_in_snapshot(self, tmp_path):
        names = self._run(tmp_path, "serial")
        assert names["campaign.runs_retried"]["value"] == 1
        assert names["campaign.runs_quarantined"]["value"] == 1
        assert names["campaign.worker_restarts"]["value"] == 0
        # Quarantined runs never produce a result record.
        assert names["campaign.runs"]["value"] == 4

    def test_sharded_merge_matches_serial_and_is_deterministic(self, tmp_path):
        serial = self._run(tmp_path / "serial", "serial")
        first = self._run(tmp_path / "w1", "sharded", "--workers", "2")
        second = self._run(tmp_path / "w2", "sharded", "--workers", "2")
        for name in ("campaign.runs", "campaign.runs_retried",
                     "campaign.runs_quarantined", "campaign.worker_restarts"):
            assert first[name]["value"] == serial[name]["value"], name
            assert first[name]["value"] == second[name]["value"], name

    def test_fault_injection_counter_reaches_snapshot(self, tmp_path):
        spec_path = tmp_path / "outage.json"
        spec_path.write_text(json.dumps({
            "name": "outage", "scenario": "pca",
            "parameters": {"duration_s": 60.0},
            "faults": [{"kind": "channel_outage", "start": 20.0,
                        "duration": [5.0, 10.0],
                        "target": "uplink:pulse-ox-1"}],
            "base_seed": 3,
        }), encoding="utf-8")
        metrics_path = tmp_path / "metrics.ndjson"
        try:
            assert campaign_main(["run", str(spec_path), "--quiet",
                                  "--metrics-out", str(metrics_path)]) == 0
            names = TestCliMetricsOut.by_name(read_snapshot(metrics_path))
            # One channel_outage armed and applied per grid point.
            assert names["campaign.faults_injected"]["value"] == 2
        finally:
            self._restore_obs()
