"""Tests for the population-scale campaign subsystem."""

import hashlib
import json

import pytest

from golden_workload import GOLDEN_PATH, SCENARIO_SPECS, campaign_capture

from repro.campaign import (
    CampaignEngine,
    CampaignError,
    CampaignSpec,
    ResultStore,
    cohort_patient,
    get_scenario,
    list_scenarios,
    load_results,
    run_campaign,
    safety_outcomes,
    safety_table,
    campaign_table,
)
from repro.campaign.cli import main as campaign_main
from repro.sim.random import derive_seed

#: Short but non-trivial simulated duration for PCA-backed campaign tests.
SHORT_PCA = {"duration_s": 600.0}


def tiny_spec(**overrides):
    base = dict(
        name="test-campaign",
        scenario="pca",
        parameters={"mode": ["open_loop", "closed_loop"], **SHORT_PCA},
        cohort_size=2,
        base_seed=123,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestRegistry:
    def test_all_five_scenarios_registered(self):
        names = {scenario.name for scenario in list_scenarios()}
        assert {"pca", "xray_vent", "bed_map", "proton", "home"} <= names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(CampaignError):
            get_scenario("does-not-exist")

    def test_unknown_parameter_rejected(self):
        spec = tiny_spec(parameters={"not_a_parameter": 1})
        with pytest.raises(CampaignError):
            spec.expand()

    def test_cohort_requires_support(self):
        spec = CampaignSpec(name="x", scenario="proton", cohort_size=3)
        with pytest.raises(CampaignError):
            spec.expand()

    def test_engine_injected_params_not_user_settable(self):
        # Regression: supplying patient_index directly used to pass validation
        # and then crash the runner with a raw KeyError on cohort_seed.
        spec = tiny_spec(parameters={"patient_index": 0, **SHORT_PCA})
        with pytest.raises(CampaignError, match="injected by the engine"):
            spec.validate()

    def test_scenario_declares_result_schema(self):
        scenario = get_scenario("pca")
        assert "harmed" in scenario.result_fields
        assert scenario.supports_cohort


class TestExpansion:
    def test_grid_size_and_order(self):
        spec = tiny_spec(repeats=3)
        manifests = spec.expand()
        assert len(manifests) == 2 * 2 * 3 == spec.grid_size()
        assert [m.run_index for m in manifests] == list(range(12))
        assert len({m.run_id for m in manifests}) == 12

    def test_seeds_differ_per_run_but_are_stable(self):
        first = tiny_spec().expand()
        second = tiny_spec().expand()
        assert [m.seed for m in first] == [m.seed for m in second]
        assert len({m.seed for m in first}) == len(first)

    def test_seed_derivation_independent_of_base_seed_only_through_hash(self):
        a = tiny_spec(base_seed=1).expand()
        b = tiny_spec(base_seed=2).expand()
        assert [m.run_id for m in a] == [m.run_id for m in b]
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_defaults_resolved_into_params(self):
        manifest = tiny_spec().expand()[0]
        assert manifest.params["policy"] == "fused"  # scenario default
        assert manifest.params["duration_s"] == 600.0  # fixed override

    def test_manifest_seed_matches_derive_seed(self):
        spec = tiny_spec()
        manifest = spec.expand()[0]
        assert manifest.seed == derive_seed(spec.base_seed, f"run:{manifest.run_id}")

    def test_spec_roundtrip_via_json(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.as_dict()))
        assert CampaignSpec.from_file(path) == spec

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({"name": "x", "scenario": "pca", "bogus": 1})

    def test_grid_size_matches_expansion_length(self):
        # grid_size is computed arithmetically for cheap banners; this pins
        # it to the expansion it must stay in sync with.
        for spec in (
            tiny_spec(),
            tiny_spec(repeats=3),
            tiny_spec(cohort_size=0),
            tiny_spec(parameters={"mode": ["closed_loop"],
                                  "policy": ["fused", "threshold"], **SHORT_PCA}),
        ):
            assert spec.grid_size() == len(spec.expand())

    def test_spec_file_errors_are_campaign_errors(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            CampaignSpec.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.from_file(bad)

    @pytest.mark.parametrize("data", [None, 3, ["name", "scenario"]])
    def test_non_object_spec_is_campaign_error(self, data):
        # Regression: these raised TypeError or ValueError from the parser.
        with pytest.raises(CampaignError, match="must be a JSON object"):
            CampaignSpec.from_dict(data)

    def test_empty_sweep_list_rejected(self):
        # Regression: an empty sweep used to "succeed" with zero runs.
        spec = tiny_spec(parameters={"mode": [], **SHORT_PCA})
        with pytest.raises(CampaignError, match="no values"):
            spec.validate()

    def test_duplicate_sweep_values_rejected(self):
        # Regression: duplicate values expanded to runs with identical run
        # ids and therefore identical seeds — correlated "samples".
        spec = tiny_spec(parameters={"mode": ["open_loop", "open_loop"], **SHORT_PCA})
        with pytest.raises(CampaignError, match="duplicate run id"):
            spec.expand()

    @pytest.mark.parametrize("field, value", [
        ("parameters", ["mode", "open_loop"]),
        ("cohort_size", "3"),
        ("repeats", "3"),
        ("base_seed", "3"),
        ("cohort_size", True),
        ("repeats", True),
        ("base_seed", False),
        ("repeats", 2.0),
        ("faults", {"kind": "channel_outage", "start": 1.0}),
        ("name", 7),
    ])
    def test_wrongly_typed_fields_are_campaign_errors(self, field, value):
        # Regression: a list `parameters` raised AttributeError and a string
        # count or seed raised TypeError from deep inside validate().
        data = {"name": "x", "scenario": "pca", field: value}
        with pytest.raises(CampaignError, match=field):
            CampaignSpec.from_dict(data)
        with pytest.raises(CampaignError, match=field):
            CampaignSpec(**data).validate()


class TestCohort:
    def test_cohort_patient_is_deterministic(self):
        a = cohort_patient(99, 5)
        b = cohort_patient(99, 5)
        assert a == b
        assert a.patient_id == "patient-005"

    def test_cohort_patients_differ_by_index(self):
        assert cohort_patient(99, 0) != cohort_patient(99, 1)

    def test_same_patient_across_configurations(self):
        # Paired populations: patient i is identical under every mode.
        manifests = tiny_spec().expand()
        by_mode = {}
        for manifest in manifests:
            key = manifest.params["patient_index"]
            by_mode.setdefault(key, []).append(manifest)
        for group in by_mode.values():
            patients = {
                cohort_patient(m.params["cohort_seed"], m.params["patient_index"])
                for m in group
            }
            assert len(patients) == 1


class TestEngine:
    def test_in_memory_campaign_runs(self):
        report = run_campaign(tiny_spec())
        assert report.total == 4
        assert report.executed == 4
        modes = {record["params"]["mode"] for record in report.records}
        assert modes == {"open_loop", "closed_loop"}
        for record in report.records:
            assert record["result"]["patient_id"].startswith("patient-")

    def test_serial_and_parallel_records_identical(self):
        serial = run_campaign(tiny_spec(), workers=1)
        parallel = run_campaign(tiny_spec(), workers=2)
        assert serial.records == parallel.records

    def test_serial_and_parallel_stores_byte_identical(self, tmp_path):
        run_campaign(tiny_spec(), workers=1, directory=tmp_path / "serial")
        run_campaign(tiny_spec(), workers=2, directory=tmp_path / "parallel")
        serial = (tmp_path / "serial" / "results.jsonl").read_bytes()
        parallel = (tmp_path / "parallel" / "results.jsonl").read_bytes()
        assert serial == parallel

    def test_resume_after_interruption(self, tmp_path):
        directory = tmp_path / "campaign"
        reference = run_campaign(tiny_spec(), workers=1, directory=directory)
        results = directory / "results.jsonl"
        full = results.read_bytes()

        # Interrupt: keep one intact record plus a torn partial line.
        lines = full.decode().splitlines()
        results.write_text(lines[0] + "\n" + lines[1][:30])

        resumed = run_campaign(
            tiny_spec(), workers=1, directory=directory, resume=True
        )
        assert resumed.skipped == 1
        assert resumed.executed == 3
        assert resumed.records == reference.records
        assert results.read_bytes() == full

    def test_fresh_run_into_dirty_directory_rejected(self, tmp_path):
        directory = tmp_path / "campaign"
        run_campaign(tiny_spec(), workers=1, directory=directory)
        with pytest.raises(CampaignError):
            run_campaign(tiny_spec(), workers=1, directory=directory)

    def test_fresh_run_rejected_even_when_only_a_torn_line_survives(self, tmp_path):
        # Regression: a crash during the very first record write leaves a
        # results file with no intact records; a fresh (non-resume) run must
        # still refuse rather than append onto the fragment and lose work.
        directory = tmp_path / "campaign"
        directory.mkdir()
        (directory / "results.jsonl").write_text('{"run_index": 0, "torn')
        with pytest.raises(CampaignError):
            run_campaign(tiny_spec(), workers=1, directory=directory)
        resumed = run_campaign(tiny_spec(), workers=1, directory=directory, resume=True)
        assert resumed.total == 4 and resumed.executed == 4

    def test_resume_with_different_spec_rejected(self, tmp_path):
        directory = tmp_path / "campaign"
        run_campaign(tiny_spec(), workers=1, directory=directory)
        other = tiny_spec(base_seed=999)
        with pytest.raises(CampaignError):
            run_campaign(other, workers=1, directory=directory, resume=True)

    def test_resume_with_changed_resolved_params_rejected(self, tmp_path):
        # Regression: a changed scenario registry *default* alters resolved
        # run params without touching the spec; resuming would silently mix
        # two parameterisations in one results file.
        import json as json_module

        directory = tmp_path / "campaign"
        run_campaign(tiny_spec(), workers=1, directory=directory)
        manifest_path = directory / "manifest.json"
        manifest = json_module.loads(manifest_path.read_text())
        manifest["runs"][0]["params"]["bolus_dose_mg"] = 99.0
        manifest_path.write_text(json_module.dumps(manifest, sort_keys=True,
                                                   separators=(",", ":")))
        with pytest.raises(CampaignError, match="resolved run parameters"):
            run_campaign(tiny_spec(), workers=1, directory=directory, resume=True)

    def test_progress_callback_sees_every_run(self):
        seen = []
        run_campaign(tiny_spec(), progress=lambda done, total, record: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(CampaignError):
            CampaignEngine(tiny_spec(), workers=0)

    def test_resume_without_directory_rejected(self):
        # Regression: resume used to be silently ignored without a store,
        # re-running everything and persisting nothing.
        with pytest.raises(CampaignError, match="no campaign directory"):
            run_campaign(tiny_spec(), resume=True)

    def test_bad_parameter_value_surfaces_as_campaign_error(self):
        # Regression: an invalid *value* (names are checked at expansion)
        # used to escape as a raw ValueError traceback.  A negative dose
        # passes the spec checks and is refused by the run itself.
        spec = tiny_spec(parameters={"bolus_dose_mg": -1.5, **SHORT_PCA})
        with pytest.raises(CampaignError, match="of scenario 'pca' failed: bolus_dose_mg"):
            run_campaign(spec)

    @pytest.mark.parametrize("key, bad", [
        ("mode", "sideways_loop"), ("policy", "magic"), ("faults", "standard+flood"),
    ])
    @pytest.mark.parametrize("swept", [False, True])
    def test_unknown_pca_setting_is_refused_at_spec_time(self, key, bad, swept):
        # Regression: an unknown mode, policy or fault preset passed
        # validate() and expand(), and failed only inside the run.
        from repro.core.loop import MODES
        from repro.core.pca import POLICIES

        presets = ("none", "standard", "standard+outage")
        allowed = {"mode": MODES, "policy": POLICIES, "faults": presets}[key]
        value = [allowed[-1], bad] if swept else bad
        spec = tiny_spec(parameters={key: value, **SHORT_PCA})
        message = f"parameter {key!r} must be one of {allowed!r}, got {bad!r}"
        with pytest.raises(CampaignError) as excinfo:
            spec.expand()
        assert str(excinfo.value) == message
        with pytest.raises(CampaignError, match="must be one of"):
            spec.validate()

    def test_unexpected_runner_error_keeps_its_traceback(self):
        # Config rejections stay one-line, but a programming error inside a
        # runner must keep its crash site in the message (pickling across
        # workers drops __cause__).
        from repro.campaign.engine import execute_manifest
        from repro.campaign.registry import ScenarioSpec, register_scenario
        from repro.campaign.spec import RunManifest

        def crashing_runner(params, seed):
            return {} + []  # TypeError

        register_scenario(ScenarioSpec(name="_crash_test", runner=crashing_runner))
        try:
            manifest = RunManifest(run_index=0, run_id="rep=0",
                                   scenario="_crash_test", params={}, seed=1)
            with pytest.raises(CampaignError) as excinfo:
                execute_manifest(manifest)
            assert "TypeError" in str(excinfo.value)
            assert "crashing_runner" in str(excinfo.value)  # traceback frame
        finally:
            from repro.campaign import registry
            registry._REGISTRY.pop("_crash_test", None)

    def test_cohort_shaping_fractions_require_a_cohort(self):
        # Regression: sweeping sensitive_fraction without a cohort silently
        # simulated the identical default patient under different seeds.
        spec = tiny_spec(
            parameters={"sensitive_fraction": [0.0, 0.9], **SHORT_PCA},
            cohort_size=0,
        )
        with pytest.raises(CampaignError, match="cohort_size"):
            run_campaign(spec)


class TestGoldenScenarioTraces:
    """All five scenarios must produce seed-identical result bytes.

    The digests in ``tests/data/golden_traces.json`` were captured on the
    seed (pre-rewrite) kernel/trace/engine; every hot-path change since must
    leave the finalized ``results.jsonl`` byte-for-byte unchanged.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())["campaigns"]

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIO_SPECS))
    def test_campaign_results_match_seed_bytes(self, scenario_key, golden, tmp_path):
        spec = CampaignSpec(**SCENARIO_SPECS[scenario_key])
        run_campaign(spec, workers=1, directory=tmp_path)
        digest = hashlib.sha256((tmp_path / "results.jsonl").read_bytes()).hexdigest()
        assert digest == golden[scenario_key]

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIO_SPECS))
    def test_campaign_work_counters_match_golden(self, scenario_key, golden, tmp_path):
        # Exact, box-independent work: an extra kernel event or message
        # copy fails here even when no result byte moves.  The counted run
        # must also reproduce the result bytes.
        digest, counters = campaign_capture(scenario_key, tmp_path)
        assert digest == golden[scenario_key]
        assert counters == json.loads(GOLDEN_PATH.read_text())["work_counters"][scenario_key]

    def test_parallel_results_match_seed_bytes(self, golden, tmp_path):
        # The worker path (manifests shipped once per worker,
        # completion-order appends) must not leak into the results: same
        # bytes as the seed's serial path.
        spec = CampaignSpec(**SCENARIO_SPECS["pca"])
        run_campaign(spec, workers=2, directory=tmp_path)
        digest = hashlib.sha256((tmp_path / "results.jsonl").read_bytes()).hexdigest()
        assert digest == golden["pca"]


class TestStore:
    def test_load_results_round_trips(self, tmp_path):
        report = run_campaign(tiny_spec(), workers=1, directory=tmp_path)
        assert load_results(tmp_path) == report.records

    def test_non_finite_floats_stored_as_null(self, tmp_path):
        # Regression: NaN used to be written as a bare `NaN` token, which is
        # not JSON and breaks every non-Python consumer of results.jsonl.
        store = ResultStore(tmp_path)
        store.append({"run_index": 0,
                      "result": {"min_spo2": float("nan"), "t": float("inf")}})
        line = store.results_path.read_text().strip()
        assert "NaN" not in line and "Infinity" not in line
        assert store.records() == [{"run_index": 0,
                                    "result": {"min_spo2": None, "t": None}}]

    def test_repair_truncates_torn_tail(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append({"run_index": 0, "value": 1})
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_index": 1, "val')
        assert store.repair() == 1
        assert store.completed() == {0: {"run_index": 0, "value": 1}}

    def test_manifest_written_and_loaded(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, workers=1, directory=tmp_path)
        manifest = ResultStore(tmp_path).load_manifest()
        assert manifest["spec"] == spec.as_dict()
        assert len(manifest["runs"]) == 4


    def test_append_holds_one_persistent_handle(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append({"run_index": 0})
        handle = store._results._handle
        assert handle is not None
        store.append({"run_index": 1})
        assert store._results._handle is handle  # no reopen per record
        store.close()
        assert store._results._handle is None
        assert len(store.records()) == 2

    def test_append_is_visible_to_a_new_reader_at_once(self, tmp_path):
        # Every append is flushed and fsynced before it returns: a second
        # store on the same directory (a report, a resume after a crash)
        # sees each record while the writer still holds its handle open.
        store = ResultStore(tmp_path)
        for index in range(3):
            store.append({"run_index": index})
            assert [r["run_index"] for r in ResultStore(tmp_path).records()] == list(
                range(index + 1))
        store.append_error({"run_index": 9, "error": {}})
        assert ResultStore(tmp_path).error_records() == [{"run_index": 9, "error": {}}]
        store.close()

    def test_close_is_idempotent_and_append_reopens(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append({"run_index": 0})
        store.close()
        store.close()
        store.append({"run_index": 1})
        store.close()
        assert [r["run_index"] for r in store.records()] == [0, 1]

    def test_repair_with_open_append_handle(self, tmp_path):
        # repair() atomically replaces the file; a stale open handle would
        # keep appending to the orphaned inode and silently lose records.
        store = ResultStore(tmp_path)
        store.append({"run_index": 0})
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_index": 1, "torn')
        assert store.repair() == 1
        store.append({"run_index": 2})
        store.close()
        assert [r["run_index"] for r in store.records()] == [0, 2]


class TestEngineFailurePath:
    def test_finished_runs_survive_a_failing_run(self, tmp_path):
        # Runs that finished before one raised mid-campaign are on disk,
        # so resume skips finished work.
        spec = tiny_spec(parameters={"bolus_dose_mg": [1.5, -1.5], **SHORT_PCA})
        with pytest.raises(CampaignError):
            run_campaign(spec, workers=1, directory=tmp_path)
        assert len(load_results(tmp_path)) > 0


class TestAggregation:
    def test_safety_outcomes_by_mode(self):
        report = run_campaign(tiny_spec())
        outcomes = safety_outcomes(report.records, group_by=("mode",))
        assert set(outcomes) == {("open_loop",), ("closed_loop",)}
        assert all(outcome.patients == 2 for outcome in outcomes.values())

    def test_safety_table_renders(self):
        report = run_campaign(tiny_spec())
        rendered = safety_table(report.records).render()
        assert "harm_rate" in rendered
        assert "closed_loop" in rendered

    def test_campaign_table_statistics(self):
        report = run_campaign(tiny_spec())
        table = campaign_table(
            report.records,
            group_by=("mode",),
            metrics=("min_spo2", "harmed"),
            statistic="min",
        )
        assert table.columns == ["mode", "runs", "min_min_spo2", "min_harmed"]
        assert len(table.rows) == 2

    def test_unknown_group_field_rejected(self):
        report = run_campaign(tiny_spec())
        with pytest.raises(CampaignError):
            campaign_table(report.records, group_by=("nope",), metrics=("harmed",))


class TestOtherScenarios:
    @pytest.mark.parametrize(
        "scenario,parameters",
        [
            ("xray_vent", {"mode": ["manual", "state_broadcast"], "image_requests": 3}),
            ("bed_map", {"use_context_awareness": [True, False],
                         "duration_s": 3600.0, "bed_moves": 2}),
            ("proton", {"rooms": [2], "fractions_per_room": 2, "duration_s": 1200.0}),
            ("home", {"mode": ["store_and_forward", "real_time"],
                      "duration_s": 7200.0, "sample_period_s": 120.0}),
        ],
    )
    def test_campaignable(self, scenario, parameters):
        spec = CampaignSpec(name=f"t-{scenario}", scenario=scenario,
                            parameters=parameters, base_seed=5)
        report = run_campaign(spec)
        assert report.total == spec.grid_size()
        schema = get_scenario(scenario).result_fields
        for record in report.records:
            assert all(key in record["result"] for key in schema)

    def test_scenario_runs_are_reproducible(self):
        spec = CampaignSpec(name="repro", scenario="xray_vent",
                            parameters={"mode": "manual", "image_requests": 3,
                                        "forget_restart_probability": 0.5},
                            repeats=2, base_seed=17)
        assert run_campaign(spec).records == run_campaign(spec).records


class TestCLI:
    def _write_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().as_dict()))
        return spec_path

    def test_list_command(self, capsys):
        assert campaign_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pca" in out and "result fields" in out

    def test_run_and_report(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        out_dir = tmp_path / "out"
        assert campaign_main(["run", str(spec_path), "--workers", "2",
                              "--out", str(out_dir), "--quiet"]) == 0
        assert (out_dir / "results.jsonl").exists()
        capsys.readouterr()
        assert campaign_main(["report", str(out_dir), "--group-by", "mode"]) == 0
        out = capsys.readouterr().out
        assert "open_loop" in out and "closed_loop" in out

    def test_report_empty_directory_fails(self, tmp_path):
        assert campaign_main(["report", str(tmp_path)]) == 1

    def test_run_unknown_scenario_is_campaign_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"name": "bad", "scenario": "nope"}))
        assert campaign_main(["run", str(spec_path), "--quiet"]) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--flush-every", "8"),
        ("run", "--shard-strategy", "contiguous"),
        ("run", "--retry-backoff", "0.5"),
        ("shard", "--strategy", "contiguous"),
    ])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flag, value):
        spec_path = self._write_spec(tmp_path)
        argv = [command, str(spec_path), flag, value]
        if command == "shard":
            argv += ["--count", "2", "--out", str(tmp_path / "shards")]
        with pytest.raises(SystemExit) as exit_info:
            campaign_main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
