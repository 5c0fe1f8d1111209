"""Tests for the repro.lint contract analyzer.

Four layers of assurance:

* every rule catches its failing fixture (and only there) in the ``fix``
  package under ``tests/lint_fixtures/``,
* every passing fixture stays clean — the rules aren't just firing on
  everything,
* the analyzer is self-clean: ``src/`` (including ``repro.lint`` itself)
  produces zero failing violations with zero suppressions in the
  simulation core, and
* the scope follows the package: the same tree under another package
  name gives the same findings, with nothing to configure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


@pytest.fixture(scope="module")
def fixture_result():
    return run_lint([FIXTURES / "fix"], root=FIXTURES)


def rules_at(result, rel_path):
    return {v.rule for v in result.failing if v.path == rel_path}


def lint_cli(*argv):
    """``python -m repro.lint *argv`` from the repo root."""
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )


class TestRuleFixtures:
    def test_exit_code_is_one_on_failing_fixtures(self, fixture_result):
        assert fixture_result.exit_code == 1
        assert len(fixture_result.failing) == 17

    def test_det_rules_fire_on_the_det_fixture(self, fixture_result):
        rules = rules_at(fixture_result, "fix/sim/det_bad.py")
        assert rules == {"DET01", "DET02", "DET03", "DET04"}
        det01 = [v for v in fixture_result.failing if v.rule == "DET01"]
        assert len(det01) == 2  # set expression + set-typed local
        det02 = [v for v in fixture_result.failing if v.rule == "DET02"]
        assert len(det02) == 2  # module-level draw + unseeded constructor

    def test_hot_rules_fire_on_the_hot_fixture(self, fixture_result):
        rules = rules_at(fixture_result, "fix/sim/hot_bad.py")
        assert rules == {"HOT01", "HOT02", "HOT03"}
        hot01 = next(v for v in fixture_result.failing if v.rule == "HOT01")
        assert "UnslottedPayload" in hot01.message
        assert hot01.symbol == "dispatch"

    def test_layer01_and_layer03_fire_on_the_sim_fixture(self, fixture_result):
        rules = rules_at(fixture_result, "fix/sim/layer_bad.py")
        assert rules == {"LAYER01", "LAYER03"}

    def test_layer02_fires_on_the_obs_fixture(self, fixture_result):
        assert rules_at(fixture_result, "fix/obs/leaf_bad.py") == {"LAYER02"}

    def test_layer03_fires_on_the_consumer_fixture(self, fixture_result):
        rules = rules_at(fixture_result, "fix/certification/consumer_bad.py")
        assert rules == {"LAYER03"}

    def test_lint01_fires_on_reasonless_suppression(self, fixture_result):
        rules = rules_at(fixture_result, "fix/sim/suppressed_bad.py")
        # The reasonless disable is itself a violation AND fails to
        # suppress the wall-clock read it targeted.
        assert rules == {"LINT01", "DET03"}

    def test_lint02_fires_on_syntax_error(self, fixture_result):
        assert rules_at(fixture_result, "fix/sim/broken.py") == {"LINT02"}

    def test_passing_fixtures_stay_clean(self, fixture_result):
        for clean in (
            "fix/sim/det_good.py",
            "fix/sim/hot_good.py",
            "fix/obs/leaf_good.py",
            "fix/campaign/runner.py",
        ):
            assert rules_at(fixture_result, clean) == set(), clean

    def test_reasoned_suppression_is_recorded_not_failing(self, fixture_result):
        assert rules_at(fixture_result, "fix/sim/suppressed_ok.py") == set()
        suppressed = [
            v for v in fixture_result.suppressed
            if v.path == "fix/sim/suppressed_ok.py"
        ]
        assert [v.rule for v in suppressed] == ["DET03"]

    def test_hot_marker_count_covers_marked_fixtures(self, fixture_result):
        # hot_bad has 3 marked methods, hot_good has 3.
        assert fixture_result.hot_functions == 6


@pytest.fixture(scope="module")
def src_lint():
    """One analysis of all of ``src``, shared by the self-clean checks."""
    return run_lint([SRC], root=REPO)


class TestSelfClean:
    def test_src_is_clean_with_zero_suppressions_in_core(self, src_lint):
        result = src_lint
        assert result.failing == []
        assert result.exit_code == 0
        core = [
            v for v in result.suppressed
            if v.path.startswith(("src/repro/sim/", "src/repro/middleware/"))
        ]
        assert core == []  # the simulation core earns a clean pass outright

    def test_hot_paths_are_marked_in_src(self, src_lint):
        assert src_lint.hot_functions >= 12

    def test_trace_event_log_allocation_is_guarded(self, tmp_path):
        # TraceRecorder.event is hot-marked: logging a TracePoint per event
        # again (it has no __slots__) must fail the lint, not pass silently.
        trace_py = (SRC / "repro" / "sim" / "trace.py").read_text()
        append = "self._events.append((float(time), signal, value, source))"
        assert append in trace_py
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "trace.py").write_text(trace_py.replace(
            append, "self._events.append(TracePoint(float(time), signal, value, source))"))
        result = run_lint([pkg], root=tmp_path)
        assert [(v.rule, v.symbol) for v in result.failing] == [("HOT01", "event")]

    def test_periodic_instant_allocation_is_guarded(self, tmp_path):
        # Simulator.run is hot-marked and opens an _Instant per new sampling
        # instant: dropping its __slots__ must fail the lint.
        kernel_py = (SRC / "repro" / "sim" / "kernel.py").read_text()
        slots = '    __slots__ = ("time", "tasks", "head")\n'
        assert kernel_py.count(slots) == 1
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "kernel.py").write_text(kernel_py.replace(slots, ""))
        result = run_lint([pkg], root=tmp_path)
        assert [(v.rule, v.symbol) for v in result.failing] == [("HOT01", "run")]

    def test_cli_json_on_src_is_clean(self):
        proc = lint_cli("src", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["version"] == 2
        assert payload["violations"] == []
        assert payload["summary"]["failing"] == 0
        assert payload["summary"]["exit_code"] == 0

    def test_cli_list_rules_names_every_family(self):
        proc = lint_cli("--list-rules")
        assert proc.returncode == 0
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line}
        assert listed == {
            "DET01", "DET02", "DET03", "DET04",
            "GOLD01",
            "HOT01", "HOT02", "HOT03",
            "LAYER01", "LAYER02", "LAYER03",
            "LINT01",
        }


class TestScopeFollowsPackage:
    def test_renamed_fixture_package_gives_the_same_findings(
        self, fixture_result, tmp_path
    ):
        # The same tree as package ``ward``: its absolute imports follow.
        shutil.copytree(FIXTURES / "fix", tmp_path / "ward")
        for module in (tmp_path / "ward").rglob("*.py"):
            text = module.read_text()
            module.write_text(text.replace("from fix.", "from ward."))
        renamed = run_lint([tmp_path / "ward"], root=tmp_path)

        def located(result, package):
            return [
                (v.rule, v.path.replace(package + "/", "<pkg>/", 1), v.line, v.col)
                for v in result.failing
            ]

        assert len(renamed.failing) == 17
        assert located(renamed, "ward") == located(fixture_result, "fix")
        assert [v.rule for v in renamed.suppressed] == ["DET03"]
        assert renamed.hot_functions == 6

    @pytest.mark.parametrize("flag", ["--config", "--baseline"])
    def test_removed_flags_are_usage_errors(self, flag):
        proc = lint_cli("src", flag, "x")
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr


class TestGoldenRegenerationHygiene:
    """GOLD01: touching golden_traces.json requires a CHANGES.md entry
    mentioning regeneration (checked over a git range by repro.lint.gold)."""

    GOLDEN = "tests/data/golden_traces.json"

    def _git(self, repo, *argv):
        subprocess.run(["git", "-C", str(repo), *argv], check=True,
                       capture_output=True)

    def _repo(self, tmp_path):
        repo = tmp_path / "scratch"
        (repo / "tests" / "data").mkdir(parents=True)
        self._git(tmp_path, "init", str(repo))
        self._git(repo, "config", "user.email", "ci@example.invalid")
        self._git(repo, "config", "user.name", "ci")
        (repo / self.GOLDEN).write_text('{"digest": "aaa"}\n')
        (repo / "CHANGES.md").write_text("- seed entry\n")
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-qm", "seed")
        return repo

    def _gold(self, repo, base):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint.gold",
             "--base", base, "--repo", str(repo)],
            capture_output=True, text=True, env=env)

    def test_unacknowledged_golden_change_fails(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / self.GOLDEN).write_text('{"digest": "bbb"}\n')
        self._git(repo, "commit", "-aqm", "drift")
        result = self._gold(repo, "HEAD~1")
        assert result.returncode == 1
        assert "GOLD01" in result.stdout

    def test_acknowledged_regeneration_passes(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / self.GOLDEN).write_text('{"digest": "bbb"}\n')
        with open(repo / "CHANGES.md", "a") as handle:
            handle.write("- PR 9: regenerated goldens for the new scenario\n")
        self._git(repo, "commit", "-aqm", "intentional")
        result = self._gold(repo, "HEAD~1")
        assert result.returncode == 0, result.stdout

    def test_changelog_without_regeneration_word_still_fails(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / self.GOLDEN).write_text('{"digest": "bbb"}\n')
        with open(repo / "CHANGES.md", "a") as handle:
            handle.write("- PR 9: assorted fixes\n")
        self._git(repo, "commit", "-aqm", "sneaky")
        result = self._gold(repo, "HEAD~1")
        assert result.returncode == 1

    def test_untouched_goldens_pass_without_changelog(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / "other.py").write_text("x = 1\n")
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-qm", "unrelated")
        result = self._gold(repo, "HEAD~1")
        assert result.returncode == 0

    def test_bad_ref_is_a_usage_error(self, tmp_path):
        repo = self._repo(tmp_path)
        result = self._gold(repo, "no-such-ref")
        assert result.returncode == 2

    def test_rule_catalog_lists_gold01(self):
        from repro.lint.rules import rule_catalog
        assert "GOLD01" in rule_catalog()
