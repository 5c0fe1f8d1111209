"""Failure-path tests for fault-tolerant campaign execution.

Every claim the resilience layer makes is exercised here against the
``chaos`` scenario, whose runs misbehave on command: deterministic raises
quarantine, transients retry at once, hung runs trip the
per-run timeout, and SIGKILLed workers are survived — and in every case
the surviving runs' ``results.jsonl`` stays byte-identical to a clean
execution of the same spec.
"""

import gc
import json
import multiprocessing
import multiprocessing.connection
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.campaign import resilience
from repro.campaign.cli import main as campaign_main
from repro.campaign.engine import run_campaign
from repro.campaign.registry import CampaignError
from repro.campaign.resilience import (
    DETERMINISTIC,
    ERROR,
    OK,
    TIMEOUT,
    TRANSIENT,
    WORKER_LOST,
    ResilienceConfig,
    RetryPolicy,
    TransientError,
    execute_with_capture,
)
from repro.campaign.spec import CampaignSpec, RunManifest
from repro.campaign.store import ResultStore, load_errors, load_results, scan_jsonl


SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs a 2-worker chaos campaign whose run 0 hangs for a second; prints the
#: worker pids after the first outcome, then sleeps until it is killed.
_ORPHAN_SCRIPT = """
import multiprocessing, time
from repro.campaign import CampaignSpec, ResilienceConfig, run_campaign

def report(done, total, record):
    print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
    time.sleep(60)

run_campaign(CampaignSpec(name="orphans", scenario="chaos", repeats=4,
                          parameters={"hang_at": "0", "hang_s": 1.0}),
             workers=2, resilience=ResilienceConfig(), progress=report)
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(") ", 1)[1][0] != "Z"
    except FileNotFoundError:
        return False


def chaos_spec(name="chaos-test", repeats=6, base_seed=7, **params):
    return CampaignSpec(name=name, scenario="chaos",
                        parameters=dict(params), repeats=repeats,
                        base_seed=base_seed)


def manifest(seed=123, **params):
    return RunManifest(run_index=0, run_id="r0", scenario="chaos",
                       params=params, seed=seed)


# ---------------------------------------------------------------- RetryPolicy
class TestRetryPolicy:
    def test_transient_error_classified_transient(self):
        assert RetryPolicy().classify(TransientError("x")) == TRANSIENT

    def test_plain_runtime_error_is_deterministic(self):
        assert RetryPolicy().classify(RuntimeError("x")) == DETERMINISTIC

    def test_transient_subclass_matches_by_base_name(self):
        class FlakySocket(TransientError):
            pass

        assert RetryPolicy().classify(FlakySocket("x")) == TRANSIENT

    def test_wrapped_cause_keeps_classification(self):
        # The engine wraps runner failures in CampaignError; the original
        # cause must still drive the transient/deterministic decision.
        try:
            try:
                raise ConnectionError("link dropped")
            except ConnectionError as inner:
                raise CampaignError("run failed") from inner
        except CampaignError as wrapped:
            assert RetryPolicy().classify(wrapped) == TRANSIENT

    def test_invalid_policy_rejected(self):
        with pytest.raises(CampaignError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CampaignError):
            ResilienceConfig(run_timeout_s=0.0)


# -------------------------------------------------------- execute_with_capture
class TestExecuteWithCapture:
    def test_success_passes_through(self):
        outcome = execute_with_capture(
            manifest(), RetryPolicy(), execute=lambda m: {"ok": True})
        assert outcome == (OK, {"ok": True}, 1)

    def test_transient_retries_until_success(self):
        calls = []

        def flaky(m):
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("not yet")
            return {"done": True}

        kind, record, attempts = execute_with_capture(
            manifest(), RetryPolicy(max_attempts=3), execute=flaky)
        assert (kind, attempts) == (OK, 3)
        assert record == {"done": True}
        assert len(calls) == 3

    def test_deterministic_failure_never_retries(self):
        calls = []

        def broken(m):
            calls.append(1)
            raise ValueError("bad config")

        kind, record, attempts = execute_with_capture(
            manifest(), RetryPolicy(max_attempts=5), execute=broken)
        assert (kind, attempts) == (ERROR, 1)
        assert len(calls) == 1
        assert record["error"]["classification"] == DETERMINISTIC
        assert record["error"]["type"] == "ValueError"

    def test_transient_exhaustion_quarantines_as_transient(self):
        def always_flaky(m):
            raise TransientError("forever")

        kind, record, attempts = execute_with_capture(
            manifest(), RetryPolicy(max_attempts=2), execute=always_flaky)
        assert (kind, attempts) == (ERROR, 2)
        assert record["error"]["classification"] == TRANSIENT
        assert record["error"]["attempts"] == 2

    def test_keyboard_interrupt_propagates(self):
        def interrupted(m):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_with_capture(manifest(), RetryPolicy(), execute=interrupted)

    def test_error_record_mirrors_run_envelope(self):
        m = manifest(seed=99, cell=3)

        def broken(run):
            raise RuntimeError("boom")

        _kind, record, _attempts = execute_with_capture(
            m, RetryPolicy(), execute=broken)
        assert record["run_index"] == m.run_index
        assert record["run_id"] == m.run_id
        assert record["scenario"] == "chaos"
        assert record["seed"] == 99
        assert record["params"] == {"cell": 3}
        error = record["error"]
        assert len(error["traceback_digest"]) == 64
        assert "boom" in error["message"]
        assert error["wall_s"] >= 0.0
        json.dumps(record)  # the quarantine record must be plain JSON

    def test_on_retry_called_per_retry(self):
        retries = []

        def flaky(m):
            if len(retries) < 2:
                raise TransientError("x")
            return {}

        execute_with_capture(manifest(), RetryPolicy(max_attempts=3),
                             execute=flaky, on_retry=lambda: retries.append(1))
        assert len(retries) == 2


# ----------------------------------------------------------- serial campaigns
class TestSerialResilience:
    def test_failures_raise_by_default_without_resilience(self):
        with pytest.raises(CampaignError, match="scripted deterministic"):
            run_campaign(chaos_spec(raise_at="1"))

    def test_quarantine_isolates_failing_runs(self, tmp_path):
        report = run_campaign(chaos_spec(raise_at="1,3"), directory=tmp_path,
                              resilience=ResilienceConfig())
        assert (report.ok, report.quarantined) == (4, 2)
        assert report.total == 4  # only surviving runs in results
        errors = load_errors(tmp_path)
        assert [e["run_index"] for e in errors] == [1, 3]
        assert all(e["error"]["classification"] == DETERMINISTIC
                   for e in errors)

    def test_transient_runs_retry_in_place(self, tmp_path):
        report = run_campaign(chaos_spec(flaky_at="2", fail_attempts=2),
                              directory=tmp_path,
                              resilience=ResilienceConfig())
        assert (report.ok, report.retried, report.quarantined) == (6, 1, 0)
        assert not (tmp_path / "errors.jsonl").exists()
        by_index = {r["run_index"]: r for r in load_results(tmp_path)}
        assert by_index[2]["result"]["attempts"] == 2

    def test_resume_redispatches_quarantined_runs(self, tmp_path):
        # First pass: retry budget of 1 quarantines the flaky run.
        spec = chaos_spec(flaky_at="2", fail_attempts=2)
        first = run_campaign(spec, directory=tmp_path,
                             resilience=ResilienceConfig(
                                 retry=RetryPolicy(max_attempts=1)))
        assert first.quarantined == 1
        assert len(load_errors(tmp_path)) == 1
        # Resume with enough budget: the run succeeds, quarantine is empty.
        second = run_campaign(spec, directory=tmp_path, resume=True,
                              resilience=ResilienceConfig())
        assert (second.ok, second.skipped) == (1, 5)
        assert not (tmp_path / "errors.jsonl").exists()
        assert len(load_results(tmp_path)) == 6

    def test_quarantined_results_match_clean_reference(self, tmp_path):
        # The surviving runs of a failing campaign must be byte-identical
        # to the same runs of a campaign that never failed.
        failing = run_campaign(chaos_spec(raise_at="1"),
                               directory=tmp_path / "failing",
                               resilience=ResilienceConfig())
        clean = run_campaign(chaos_spec(), directory=tmp_path / "clean",
                             resilience=ResilienceConfig())
        # Fixed (non-swept) params differ between the two specs, but run ids
        # — and therefore seeds and results — must not.
        survivors = {r["run_index"]: (r["seed"], r["result"])
                     for r in failing.records}
        reference = {r["run_index"]: (r["seed"], r["result"])
                     for r in clean.records}
        assert all(reference[i] == survivors[i] for i in survivors)


# --------------------------------------------------------- parallel campaigns
class TestParallelResilience:
    CONFIG = ResilienceConfig(run_timeout_s=5.0)

    def test_worker_raise_does_not_poison_the_pool(self, tmp_path):
        report = run_campaign(chaos_spec(raise_at="1", repeats=8),
                              workers=2, directory=tmp_path,
                              resilience=ResilienceConfig())
        assert (report.ok, report.quarantined) == (7, 1)
        assert len(load_results(tmp_path)) == 7

    def test_sigkilled_worker_is_survived(self, tmp_path):
        report = run_campaign(chaos_spec(kill_at="2", repeats=8),
                              workers=2, directory=tmp_path,
                              resilience=self.CONFIG)
        assert report.ok == 7
        assert report.quarantined == 1
        assert report.worker_restarts >= 1
        errors = load_errors(tmp_path)
        assert errors[0]["error"]["classification"] == WORKER_LOST
        assert errors[0]["run_index"] == 2

    def test_hung_run_times_out_and_is_quarantined(self, tmp_path):
        config = ResilienceConfig(run_timeout_s=1.0)
        report = run_campaign(chaos_spec(hang_at="1", hang_s=60.0, repeats=6),
                              workers=2, directory=tmp_path,
                              resilience=config)
        assert (report.ok, report.quarantined, report.timed_out) == (5, 1, 1)
        errors = load_errors(tmp_path)
        assert errors[0]["error"]["classification"] == TIMEOUT

    def test_parallel_survivors_byte_identical_to_serial(self, tmp_path):
        spec = chaos_spec(raise_at="1", flaky_at="3", repeats=8)
        run_campaign(spec, directory=tmp_path / "serial",
                     resilience=ResilienceConfig())
        run_campaign(spec, workers=3, directory=tmp_path / "parallel",
                     resilience=ResilienceConfig())
        serial = (tmp_path / "serial" / "results.jsonl").read_bytes()
        parallel = (tmp_path / "parallel" / "results.jsonl").read_bytes()
        assert serial == parallel

    def test_fail_fast_parallel_raise_aborts_without_quarantine(self, tmp_path):
        with pytest.raises(CampaignError, match="scripted deterministic"):
            run_campaign(chaos_spec(raise_at="1", repeats=8), workers=2,
                         directory=tmp_path)
        assert not (tmp_path / "errors.jsonl").exists()

    def test_fail_fast_parallel_detects_a_lost_worker(self):
        with pytest.raises(CampaignError, match="worker process died"):
            run_campaign(chaos_spec(kill_at="2", repeats=8), workers=2)

    @pytest.mark.parametrize("budget", [None, 60.0])
    def test_a_completion_wakes_the_parent_directly(self, monkeypatch, budget):
        # The parent waits on its workers' pipes with no timeout but the
        # earliest run deadline: every wake delivers a completion.
        timeouts = []
        real_wait = multiprocessing.connection.wait

        def recording_wait(handles, timeout=None):
            if len(handles) > 1:  # not Connection.poll, which waits on one pipe
                timeouts.append(timeout)
            return real_wait(handles, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait", recording_wait)
        report = run_campaign(chaos_spec(repeats=8, work_s=0.02), workers=2,
                              resilience=ResilienceConfig(run_timeout_s=budget))
        assert report.ok == 8
        assert 0 < len(timeouts) <= 8
        if budget is None:
            assert set(timeouts) == {None}
        else:
            assert all(budget - 10.0 < timeout <= budget for timeout in timeouts)

    def test_a_dead_workers_queued_run_is_redispatched_uncharged(self, tmp_path):
        # Worker 1 holds run 0 (running) and run 2 (queued); worker 2 holds
        # run 1.  Run 0 kills worker 1, so run 2 never started there: it is
        # dispatched twice more and dies both times, four deaths in all.
        report = run_campaign(chaos_spec(kill_at="0,2", repeats=3), workers=2,
                              directory=tmp_path, resilience=ResilienceConfig())
        assert (report.ok, report.quarantined, report.worker_restarts) == (1, 2, 4)
        errors = load_errors(tmp_path)
        assert [(e["run_index"], e["error"]["classification"], e["error"]["attempts"])
                for e in errors] == [(0, WORKER_LOST, 2), (2, WORKER_LOST, 2)]

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        parent = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT],
                                  stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert select.select([parent.stdout], [], [], 30.0)[0], "no worker pids"
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(pids) == 2
        # The idle worker sees end-of-file at once; the hung one when its
        # run ends and its reply has no reader.
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if _running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []

    def test_pool_degrades_to_serial_after_repeated_worker_loss(self, tmp_path):
        # Two scripted kills, each lost on both of its dispatches, take the
        # engine past _MAX_WORKER_RESTARTS; the campaign still finishes and
        # every survivor matches a serial run.
        spec = chaos_spec(kill_at="1,4", repeats=10)
        report = run_campaign(spec, workers=2, directory=tmp_path / "degraded",
                              resilience=ResilienceConfig())
        assert report.worker_restarts > resilience._MAX_WORKER_RESTARTS
        assert (report.ok, report.quarantined) == (8, 2)
        assert [error["run_index"] for error in load_errors(tmp_path / "degraded")] == [1, 4]
        run_campaign(spec, directory=tmp_path / "serial",
                     resilience=ResilienceConfig())
        assert load_results(tmp_path / "degraded") == load_results(tmp_path / "serial")

    def test_degraded_campaign_runs_the_serial_loop_with_the_heap_frozen(
            self, tmp_path, monkeypatch):
        # One lost worker is one too many here, so run 0's loss sends the
        # runs left to execute_serially in this process: each is reclaimed
        # with the caller's heap frozen, and the freeze is lifted afterwards.
        monkeypatch.setattr(resilience, "_MAX_WORKER_RESTARTS", 0)
        frozen_at_reclaim = []
        monkeypatch.setattr(resilience, "_reclaim_run",
                            lambda: frozen_at_reclaim.append(gc.get_freeze_count() > 0))
        freeze_count = gc.get_freeze_count()
        report = run_campaign(chaos_spec(kill_at="0", repeats=4), workers=2,
                              directory=tmp_path, resilience=ResilienceConfig())
        assert (report.ok, report.quarantined, report.worker_restarts) == (3, 1, 1)
        # Outside a worker the scripted kill is a deterministic failure.
        assert [e["error"]["classification"] for e in load_errors(tmp_path)] == [DETERMINISTIC]
        assert frozen_at_reclaim and all(frozen_at_reclaim)
        assert gc.get_freeze_count() == freeze_count

    @pytest.mark.parametrize("ending", ["finished", "fail_fast", "interrupt", "degraded"])
    def test_every_worker_is_reaped_and_no_temp_file_is_made(
            self, tmp_path, monkeypatch, ending):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        run = dict(workers=2, directory=tmp_path / "campaign")
        if ending == "finished":
            assert run_campaign(chaos_spec(repeats=6), **run).ok == 6
        elif ending == "fail_fast":
            with pytest.raises(CampaignError, match="scripted deterministic"):
                run_campaign(chaos_spec(raise_at="1", repeats=6), **run)
        elif ending == "interrupt":
            def interrupt(done, total, record):
                raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                run_campaign(chaos_spec(repeats=6, work_s=0.05),
                             progress=interrupt, **run)
        else:
            report = run_campaign(chaos_spec(kill_at="1,4", repeats=10),
                                  resilience=ResilienceConfig(), **run)
            assert report.worker_restarts > resilience._MAX_WORKER_RESTARTS
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no exited worker is left unreaped
        assert list(scratch.iterdir()) == []


# ------------------------------------------------------- interrupt and resume
class TestInterruptResume:
    def test_keyboard_interrupt_leaves_store_closed_and_resumable(self, tmp_path):
        spec = chaos_spec(repeats=6)
        interrupted_dir = tmp_path / "interrupted"

        def interrupt_after_three(done, total, record):
            if done >= 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, directory=interrupted_dir,
                         progress=interrupt_after_three)
        # The store was flushed and closed on the way out: the finished
        # runs are on disk and the campaign resumes cleanly.
        assert len(scan_jsonl(interrupted_dir / "results.jsonl")[0]) == 3
        report = run_campaign(spec, directory=interrupted_dir, resume=True)
        assert (report.executed, report.skipped) == (3, 3)

        reference_dir = tmp_path / "reference"
        run_campaign(spec, directory=reference_dir)
        assert ((interrupted_dir / "results.jsonl").read_bytes()
                == (reference_dir / "results.jsonl").read_bytes())

    def test_interrupt_propagates_in_resilient_mode(self, tmp_path):
        def interrupt_immediately(done, total, record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(chaos_spec(), directory=tmp_path,
                         progress=interrupt_immediately,
                         resilience=ResilienceConfig())


# ------------------------------------------------------------- store hardening
class TestStoreCorruption:
    def fill(self, tmp_path, count=5):
        store = ResultStore(tmp_path)
        for index in range(count):
            store.append({"run_index": index, "value": index * 10})
        store.close()
        return store

    def corrupt_line(self, path, lineno):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno] = '{"run_index": ' + "\x00garbage\n"
        path.write_text("".join(lines), encoding="utf-8")

    def test_interior_corruption_skipped_not_truncated(self, tmp_path):
        store = self.fill(tmp_path)
        self.corrupt_line(store.results_path, 2)
        kept = store.repair()
        assert kept == 4
        assert store.last_repair_skipped == {"results.jsonl": 1}
        assert [r["run_index"] for r in store.records()] == [0, 1, 3, 4]

    def test_torn_tail_and_interior_corruption_together(self, tmp_path):
        store = self.fill(tmp_path)
        self.corrupt_line(store.results_path, 1)
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_index": 99, "torn')
        assert store.repair() == 4
        assert store.last_repair_skipped == {"results.jsonl": 2}

    def test_errors_file_repaired_too(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(3):
            store.append_error({"run_index": index, "error": {"type": "X"}})
        store.close()
        self.corrupt_line(store.errors_path, 1)
        store.repair()
        assert store.last_repair_skipped == {"errors.jsonl": 1}
        assert [e["run_index"] for e in store.error_records()] == [0, 2]

    def test_scan_jsonl_reports_skips(self, tmp_path):
        store = self.fill(tmp_path, count=4)
        self.corrupt_line(store.results_path, 0)
        records, skipped = scan_jsonl(store.results_path)
        assert skipped == 1
        assert [r["run_index"] for r in records] == [1, 2, 3]

    def test_reset_errors_truncates(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append_error({"run_index": 0, "error": {}})
        store.reset_errors()
        assert store.error_records() == []

    def test_finalize_errors_sorts_and_drops_empty_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append_error({"run_index": 2, "error": {}})
        store.append_error({"run_index": 0, "error": {}})
        ordered = store.finalize_errors()
        assert [e["run_index"] for e in ordered] == [0, 2]
        store2 = ResultStore(tmp_path / "empty")
        store2.finalize_errors()
        assert not store2.errors_path.exists()

    @pytest.mark.parametrize("bad_line", ['{"result": {}}', "7"])
    @pytest.mark.parametrize("filename", ["results.jsonl", "errors.jsonl"])
    def test_a_record_without_a_run_index_is_a_campaign_error(
            self, tmp_path, filename, bad_line):
        spec = chaos_spec(raise_at="1", repeats=3)
        config = ResilienceConfig()
        run_campaign(spec, directory=tmp_path, resilience=config)
        with open(tmp_path / filename, "a", encoding="utf-8") as handle:
            handle.write(bad_line + "\n")
        if filename == "results.jsonl":
            readers = [lambda: load_results(tmp_path),
                       lambda: ResultStore(tmp_path).finalize(),
                       lambda: run_campaign(spec, directory=tmp_path, resume=True,
                                            resilience=config)]
        else:
            readers = [lambda: load_errors(tmp_path),
                       lambda: ResultStore(tmp_path).finalize_errors()]
        message = re.escape(f"campaign directory {tmp_path}: a {filename} record "
                            "has no integer 'run_index'")
        for read in readers:
            with pytest.raises(CampaignError, match=message):
                read()

    @pytest.mark.parametrize("present", [False, True], ids=["missing", "file"])
    @pytest.mark.parametrize("reader", ["load_results", "load_errors", "report"])
    def test_a_reader_of_a_path_that_is_not_a_directory_creates_nothing(
            self, tmp_path, capsys, reader, present):
        path = tmp_path / "no-such-campaign"
        if present:
            path.write_text("not a campaign", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        message = f"campaign directory {path} is not a directory"
        if reader == "report":
            assert campaign_main(["report", str(path)]) == 2
            assert message in capsys.readouterr().err
        else:
            read = load_results if reader == "load_results" else load_errors
            with pytest.raises(CampaignError, match=re.escape(message)):
                read(path)
        assert sorted(tmp_path.rglob("*")) == before

    def test_a_campaign_without_an_errors_file_has_no_errors(self, tmp_path):
        run_campaign(chaos_spec(repeats=2), directory=tmp_path)
        assert not (tmp_path / "errors.jsonl").exists()
        assert load_errors(tmp_path) == []
        assert len(load_results(tmp_path)) == 2

    def test_resume_over_a_manifest_whose_spec_is_not_an_object(self, tmp_path):
        spec = chaos_spec(repeats=2)
        run_campaign(spec, directory=tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"] = []
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CampaignError, match=re.escape(
                f"campaign directory {tmp_path}: manifest field 'spec' must be an object")):
            run_campaign(spec, directory=tmp_path, resume=True)

    def test_repair_handles_missing_errors_file(self, tmp_path):
        store = self.fill(tmp_path)
        assert not store.errors_path.exists()
        assert store.repair() == 5
        assert not store.errors_path.exists()


# ------------------------------------------------------------------------ CLI
class TestResilienceCLI:
    def write_spec(self, tmp_path, **over):
        payload = {"name": "cli-chaos", "scenario": "chaos",
                   "parameters": {"raise_at": "1", "flaky_at": "2"},
                   "repeats": 5, "base_seed": 3}
        payload.update(over)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_isolate_failures_flag_quarantines_and_exits_zero(
            self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        out_dir = tmp_path / "campaign"
        assert campaign_main(["run", str(spec_path), "--out", str(out_dir),
                              "--isolate-failures"]) == 0
        out = capsys.readouterr().out
        assert "4 ok (1 after retry), 1 quarantined" in out
        assert "errors.jsonl" in out
        assert len(load_errors(out_dir)) == 1

    def test_without_isolate_failures_cli_fails(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        assert campaign_main(["run", str(spec_path), "--quiet"]) == 2

    def test_run_timeout_requires_isolate_failures(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        assert campaign_main(["run", str(spec_path), "--quiet",
                              "--run-timeout", "5"]) == 2

    def test_json_mode_emits_outcome_event(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        assert campaign_main(["run", str(spec_path), "--json",
                              "--isolate-failures", "--retries", "1"]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        outcome = next(e for e in events if e["event"] == "campaign-outcomes")
        assert outcome["quarantined"] == 2  # flaky had no retry budget
        assert outcome["ok"] == 3


# ---------------------------------------------------------------- fault sweeps
class TestFaultSweepSpecs:
    def outage_spec(self, **over):
        data = dict(
            name="outage", scenario="pca",
            parameters={"duration_s": 60.0},
            faults=[{"kind": "channel_outage", "start": [30.0, 60.0],
                     "duration": [10.0, 20.0],
                     "target": "uplink:pulse-ox-1"}],
            base_seed=3,
        )
        data.update(over)
        return CampaignSpec(**data)

    def test_fault_fields_become_sweep_axes(self):
        spec = self.outage_spec()
        assert spec.sweep_axes() == ["fault0.start", "fault0.duration"]
        assert spec.grid_size() == 4
        manifests = spec.expand()
        assert len(manifests) == 4
        assert manifests[0].run_id == "fault0.start=30.0&fault0.duration=10.0&rep=0"

    def test_resolved_fault_values_land_in_params_and_plan(self):
        manifests = self.outage_spec().expand()
        last = manifests[-1]
        assert last.params["fault0.start"] == 60.0
        assert last.params["fault0.duration"] == 20.0
        plan = last.params["fault_plan"]
        assert plan == [{"kind": "channel_outage", "start": 60.0,
                         "duration": 20.0, "target": "uplink:pulse-ox-1",
                         "parameters": {}}]

    def test_faults_on_unsupporting_scenario_rejected(self):
        spec = CampaignSpec(name="x", scenario="chaos",
                            faults=[{"kind": "device_crash", "start": 1.0}])
        with pytest.raises(CampaignError, match="does not support fault"):
            spec.validate()

    def test_unknown_fault_field_rejected(self):
        spec = self.outage_spec(
            faults=[{"kind": "channel_outage", "start": 1.0, "severity": 9}])
        with pytest.raises(CampaignError, match="unknown fields"):
            spec.validate()

    def test_unknown_fault_kind_rejected(self):
        spec = self.outage_spec(faults=[{"kind": "gremlins", "start": 1.0}])
        with pytest.raises(CampaignError, match="kind"):
            spec.validate()

    def test_empty_fault_sweep_rejected(self):
        spec = self.outage_spec(
            faults=[{"kind": "channel_outage", "start": [],
                     "target": "uplink:pulse-ox-1"}])
        with pytest.raises(CampaignError, match="sweeps no values"):
            spec.validate()

    @pytest.mark.parametrize("field, value", [
        ("start", float("nan")),
        ("start", [30.0, float("inf")]),
        ("duration", float("inf")),
        ("parameters", [1]),
    ])
    def test_non_finite_or_malformed_fault_is_a_spec_error(self, field, value):
        # Regression: a NaN start validated and expanded, and the run then
        # failed in the kernel; the spec error must surface at expansion.
        fault = {"kind": "channel_outage", "start": 30.0, "duration": 10.0,
                 "target": "uplink:pulse-ox-1", field: value}
        spec = self.outage_spec(faults=[fault])
        with pytest.raises(CampaignError, match=f"faults\\[0\\] does not compile: fault {field}"):
            spec.expand()

    def test_zero_duration_outage_in_a_sweep_is_a_spec_error(self):
        # Regression: the 0.0 grid point expanded, and its run then failed
        # at the fault instant instead of the spec failing before any run.
        spec = self.outage_spec(
            faults=[{"kind": "channel_outage", "start": 20.0,
                     "duration": [0.0, 30.0],
                     "target": "uplink:pulse-ox-1"}])
        with pytest.raises(CampaignError, match=(
                r"faults\[0\] does not compile: fault duration .*channel_outage")):
            spec.expand()

    def test_as_dict_roundtrip_carries_faults(self):
        spec = self.outage_spec()
        clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone.faults == spec.faults
        assert clone.expand()[0].run_id == spec.expand()[0].run_id

    def test_faultless_spec_dict_unchanged(self):
        # No 'faults' key for fault-less specs: manifests written before
        # this feature existed still compare equal on resume.
        spec = CampaignSpec(name="plain", scenario="chaos")
        assert "faults" not in spec.as_dict()

    def test_outage_sweep_executes_and_groups(self, tmp_path):
        spec = self.outage_spec(
            faults=[{"kind": "channel_outage", "start": 20.0,
                     "duration": [5.0, 15.0],
                     "target": "uplink:pulse-ox-1"}])
        report = run_campaign(spec, directory=tmp_path)
        assert report.ok == 2
        by_duration = {r["params"]["fault0.duration"] for r in report.records}
        assert by_duration == {5.0, 15.0}
