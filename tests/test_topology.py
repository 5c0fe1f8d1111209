"""Declarative hospital topologies and the machinery they light up.

Four contracts under test:

* **Spec**: a :class:`TopologySpec` is JSON-roundtrippable and rejects
  malformed input at construction, not at expansion time.
* **Expansion determinism**: the manifest depends only on ``(spec, seed)``
  — byte-identical across interpreters under different ``PYTHONHASHSEED``
  values, independent of call position, stable across spec round-trips.
* **Scenario families**: generated fault plans are valid against
  ``FAULT_KINDS`` and target only realised devices; attack plans target
  only realised pumps; postures configure real authenticator exchanges.
* **Regressions**: the four dormant-machinery fixes the topology layer
  exposed (population fraction validation, stale-start fault clamping,
  overlapping hypotension episodes, attack-session gating) stay fixed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignError, CampaignSpec, ResultStore, all_shards, run_campaign
from repro.patient.population import PatientPopulation
from repro.scenarios.bed_map import BedMapConfig, BedMapScenario
from repro.security.attacks import Attack, AttackCampaign
from repro.security.auth import DeviceAuthenticator
from repro.sim.faults import FAULT_KINDS, FaultInjector, FaultSpec
from repro.sim.kernel import Simulator
from repro.topology import (
    DEVICE_TYPES,
    TopologyError,
    TopologySpec,
    WardSpec,
    build_hospital,
    cohort_counts,
    expand_topology,
    generate_attack_plan,
    generate_fault_plan,
    manifest_device_ids,
    manifest_json,
    security_for_posture,
    standard_hospital,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def small_spec(name="topo-test", wards=2, beds_per_ward=4, **kwargs):
    return standard_hospital(name, wards=wards, beds_per_ward=beds_per_ward,
                             **kwargs)


FAULTY = {"channel_outage_rate": 3.0, "stuck_sensor_rate": 2.0,
          "misprogramming_rate": 1.0}


# ------------------------------------------------------------------- spec
class TestTopologySpec:
    def test_json_round_trip_is_exact(self):
        spec = small_spec(
            device_mix={"pca_pump": 0.5},
            cohort={"sensitive_fraction": 0.2, "athlete_fraction": 0.1},
            staffing={"beds_per_caregiver": 3, "shift": "night"},
            faults=FAULTY,
        )
        assert TopologySpec.from_json(spec.to_json()) == spec
        assert TopologySpec.from_dict(spec.as_dict()) == spec
        # The dict form is itself JSON-stable (campaign params travel as JSON).
        assert json.loads(json.dumps(spec.as_dict())) == spec.as_dict()

    def test_from_file(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "topo.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert TopologySpec.from_file(path) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(TopologyError, match="unknown topology spec fields"):
            TopologySpec.from_dict({"name": "x", "wards": [], "extra": 1})
        with pytest.raises(TopologyError, match="unknown ward spec fields"):
            TopologySpec.from_dict(
                {"name": "x", "wards": [{"name": "w", "beds": 1, "bogus": 2}]})

    def test_validation_is_eager(self):
        with pytest.raises(TopologyError, match="at least one ward"):
            TopologySpec(name="empty", wards=())
        with pytest.raises(TopologyError, match="duplicate ward name"):
            TopologySpec(name="dup", wards=(WardSpec(name="icu", beds=1),
                                            WardSpec(name="icu", beds=1)))
        with pytest.raises(TopologyError, match="must not exceed 1"):
            small_spec(cohort={"sensitive_fraction": 0.7,
                               "athlete_fraction": 0.5})
        with pytest.raises(TopologyError):
            small_spec(device_mix={"pca_pump": 1.5})
        with pytest.raises(TopologyError):
            small_spec(staffing={"shift": "graveyard"})

    @pytest.mark.parametrize("beds, message", [
        (2.5, "whole number"),
        (True, "finite number"),
        (float("nan"), "finite number"),
        ("3", "finite number"),
    ])
    def test_ward_beds_must_be_a_whole_number(self, beds, message):
        # Regression: 2.5 built 2 beds, true built 1, and NaN failed with
        # a bare "cannot convert float NaN to integer".
        with pytest.raises(TopologyError, match=f"ward 'w' beds must be a {message}"):
            TopologySpec.from_dict({"name": "x", "wards": [{"name": "w", "beds": beds}]})

    def test_integral_float_beds_are_accepted(self):
        spec = TopologySpec.from_dict({"name": "x", "wards": [{"name": "w", "beds": 3.0}]})
        assert spec.wards[0].beds == 3 and isinstance(spec.wards[0].beds, int)

    @pytest.mark.parametrize("field", [
        "channel_outage_rate", "channel_outage_duration_s", "stuck_sensor_rate",
        "stuck_sensor_duration_s", "misprogramming_rate",
        "misprogramming_rate_multiplier",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1"])
    def test_fault_profile_values_must_be_finite_numbers(self, field, value):
        # Regression: a NaN rate passed validation and then realised no
        # faults at all; an infinite one failed inside numpy.
        with pytest.raises(TopologyError, match=f"faults.{field} must be a finite number"):
            small_spec(faults={field: value})

    @pytest.mark.parametrize("field, value", [
        ("caregivers", 1.5), ("caregivers", float("nan")),
        ("beds_per_caregiver", float("nan")), ("beds_per_caregiver", False),
    ])
    def test_staffing_counts_must_be_whole_numbers(self, field, value):
        with pytest.raises(TopologyError, match=f"staffing.{field} must be a"):
            small_spec(staffing={field: value})

    def test_fault_plan_duration_must_be_finite(self):
        with pytest.raises(TopologyError, match="duration_s must be finite"):
            generate_fault_plan(small_spec(faults=FAULTY), 3, float("nan"))

    def test_staffing_derivation(self):
        spec = small_spec(wards=1, beds_per_ward=9,
                          staffing={"beds_per_caregiver": 4})
        assert spec.wards[0].staffing.caregiver_count(9) == 3  # ceil(9/4)
        explicit = small_spec(wards=1, beds_per_ward=9,
                              staffing={"caregivers": 2})
        assert explicit.wards[0].staffing.caregiver_count(9) == 2
        assert spec.total_beds == 9
        assert spec.total_caregivers() == 3


# ------------------------------------------------------- expansion determinism
class TestExpansionDeterminism:
    def test_same_spec_and_seed_same_manifest(self):
        spec = small_spec()
        assert manifest_json(spec, 42) == manifest_json(spec, 42)
        assert manifest_json(spec, 42) != manifest_json(spec, 43)

    def test_expansion_is_position_independent(self):
        # Consuming unrelated randomness between expansions must not change
        # the manifest: every stream is derived by name, never by call order.
        spec = small_spec()
        first = manifest_json(spec, 7)
        np.random.default_rng(0).uniform(size=1000)
        expand_topology(small_spec("decoy"), 7)
        assert manifest_json(spec, 7) == first

    def test_round_tripped_spec_expands_identically(self):
        spec = small_spec(faults=FAULTY)
        clone = TopologySpec.from_json(spec.to_json())
        assert manifest_json(clone, 11) == manifest_json(spec, 11)

    def test_manifest_byte_identical_across_hash_seeds(self, tmp_path):
        # The acceptance gate: expansion in separate interpreters under
        # PYTHONHASHSEED=0 and 4242 must produce byte-identical manifests.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec(faults=FAULTY).to_json(),
                             encoding="utf-8")
        script = (
            "import sys\n"
            "from repro.topology import TopologySpec, manifest_json\n"
            f"spec = TopologySpec.from_file({str(spec_path)!r})\n"
            "sys.stdout.write(manifest_json(spec, 1234))\n"
        )
        manifests = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run([sys.executable, "-c", script],
                                 capture_output=True, text=True, env=env,
                                 check=True)
            manifests.append(out.stdout)
        assert manifests[0] == manifests[1]

    def test_manifest_shape_is_consistent(self):
        spec = small_spec(wards=3, beds_per_ward=5)
        manifest = expand_topology(spec, 9)
        assert manifest["total_beds"] == 15
        assert [ward["name"] for ward in manifest["wards"]] == [
            "ward-00", "ward-01", "ward-02"]
        for ward in manifest["wards"]:
            assert sum(ward["cohort_counts"].values()) == len(ward["beds"])
            for bed in ward["beds"]:
                assert len(bed["devices"]) == len(bed["device_ids"])
                assert set(bed["devices"]) <= set(DEVICE_TYPES)
                assert bed["channels"] == [
                    f"uplink:{device_id}" for device_id in bed["device_ids"]]
                assert bed["patient"]["patient_id"] == bed["bed_id"]
        totals = cohort_counts(manifest)
        assert sum(totals.values()) == 15


# --------------------------------------------------------- scenario families
class TestGenerators:
    def test_fault_plan_entries_valid_against_fault_kinds(self):
        spec = small_spec(faults=FAULTY)
        plan = generate_fault_plan(spec, 3, 7200.0)
        assert plan, "rates x duration should realise at least one fault"
        manifest = expand_topology(spec, 3)
        devices = {device_id for ward in manifest["wards"]
                   for bed in ward["beds"] for device_id in bed["device_ids"]}
        for entry in plan:
            compiled = FaultSpec.from_dict(entry)  # must not raise
            assert compiled.kind in FAULT_KINDS
            assert 0.0 <= compiled.start <= 7200.0
            if compiled.kind == "channel_outage":
                assert compiled.target.startswith("uplink:")
                assert compiled.target[len("uplink:"):] in devices
            else:
                assert compiled.target in devices
            if compiled.kind == "misprogramming":
                assert compiled.parameters["rate_multiplier"] > 1.0

    def test_fault_plan_deterministic_and_sorted(self):
        spec = small_spec(faults=FAULTY)
        first = generate_fault_plan(spec, 5, 3600.0)
        assert first == generate_fault_plan(spec, 5, 3600.0)
        starts = [entry["start"] for entry in first]
        assert starts == sorted(starts)

    def test_fault_plan_rejects_non_positive_duration(self):
        with pytest.raises(TopologyError, match="duration_s"):
            generate_fault_plan(small_spec(), 0, 0.0)

    def test_attack_plan_targets_realised_pumps_only(self):
        spec = small_spec(device_mix={"pca_pump": 1.0})
        manifest = expand_topology(spec, 2)
        pumps = set(manifest_device_ids(manifest, "pca_pump"))
        attacks = generate_attack_plan(spec, 2, manifest=manifest)
        assert attacks and all(attack.target_device in pumps
                               for attack in attacks)
        assert attacks == generate_attack_plan(spec, 2, manifest=manifest)

    def test_attack_plan_empty_without_pumps(self):
        spec = small_spec(device_mix={"pca_pump": 0.0})
        assert generate_attack_plan(spec, 2) == []

    def test_postures(self):
        for posture in ("open", "allowlisted", "data_only"):
            authenticator, policy, stolen = security_for_posture(
                posture, 1, pump_ids=("pump-1",),
                insider_principals=("insider-0",))
            assert set(stolen) == {"insider-0"}
            if posture == "open":
                assert not policy.require_authentication
                assert policy.authorise("anyone", "pump-1", "stop")[0]
            else:
                assert policy.require_authentication
                # The legitimate supervisor went through a real exchange.
                assert authenticator.is_authenticated("safety")
            if posture == "allowlisted":
                assert policy.authorise("safety", "pump-1", "stop")[0]
                assert not policy.authorise("safety", "pump-1",
                                            "set_prescription")[0]
            if posture == "data_only":
                assert not policy.authorise("safety", "pump-1", "stop")[0]
        with pytest.raises(TopologyError, match="unknown security posture"):
            security_for_posture("fort_knox", 1)


# --------------------------------------------------------------- end to end
class TestHospitalEndToEnd:
    def test_hundred_bed_hospital_runs_as_registered_campaign(self, tmp_path):
        # The acceptance scenario: a >=100-bed multi-ward topology with a
        # faults block and cohort fractions, swept through the registered
        # 'ward' campaign scenario, sharded 2-way, merged byte-identically.
        topology = standard_hospital(
            "acceptance-hospital",
            wards=3,
            beds_per_ward=36,
            device_mix={"pulse_oximeter": 1.0, "capnograph": 0.4,
                        "bp_monitor": 0.4, "bed": 1.0, "pca_pump": 0.4},
            cohort={"sensitive_fraction": 0.25, "athlete_fraction": 0.15},
            staffing={"beds_per_caregiver": 6, "shift": "night"},
            faults={"channel_outage_rate": 1.0, "stuck_sensor_rate": 0.5,
                    "misprogramming_rate": 0.5},
        )
        assert topology.total_beds >= 100
        spec = CampaignSpec(
            name="acceptance-ward",
            scenario="ward",
            parameters={"topology": topology.as_dict(),
                        "security_posture": ["open", "allowlisted"],
                        "duration_s": 120.0},
            base_seed=11,
        )
        serial = tmp_path / "serial"
        report = run_campaign(spec, workers=1, directory=serial)
        assert report.total == 2
        for record in report.records:
            result = record["result"]
            assert result["beds"] == 108
            assert result["wards"] == 3
            assert (result["patients_typical"]
                    + result["patients_opioid_sensitive"]
                    + result["patients_athlete"]) == 108
            assert result["faults_injected"] > 0
            assert result["attacks_total"] > 0
            assert result["messages_forwarded"] > 0
        by_posture = {record["params"]["security_posture"]: record["result"]
                      for record in report.records}
        # The flexibility-vs-security tradeoff must be visible: open lets
        # every attack through, allowlisted authentication blocks outsiders.
        assert by_posture["open"]["attacks_succeeded"] == \
            by_posture["open"]["attacks_total"]
        assert by_posture["allowlisted"]["attacks_blocked_authentication"] > 0

        # Shard 2-way and merge: byte-identical to the serial store.
        segments = []
        for shard in all_shards(2):
            segment = tmp_path / f"seg-{shard.index}"
            run_campaign(spec, workers=1, directory=segment, shard=shard)
            segments.append(segment)
        ResultStore(tmp_path / "merged").merge(segments)
        assert (tmp_path / "merged" / "results.jsonl").read_bytes() == \
            (serial / "results.jsonl").read_bytes()

    def test_build_hospital_wires_faults_and_safety(self):
        topology = small_spec(
            wards=1, beds_per_ward=8,
            device_mix={"pulse_oximeter": 1.0, "pca_pump": 1.0},
            faults=FAULTY)
        runtime = build_hospital(topology, 21)
        plan = generate_fault_plan(topology, 21, 600.0,
                                   manifest=runtime.manifest)
        runtime.injector.extend([FaultSpec.from_dict(entry) for entry in plan])
        runtime.injector.arm()
        runtime.simulator.run(until=600.0)
        assert len(runtime.injector.injected) == len(plan)
        assert runtime.bus_stats()["published"] > 0
        assert len(runtime.beds()) == 8

    def test_ward_safety_app_stops_only_on_valid_readings(self):
        from repro.readings import Reading
        from repro.topology.expand import WardSafetyApp

        class _Host:
            def __init__(self):
                self.commands = []

            def send_command(self, app, device_id, command, parameters=None):
                self.commands.append((device_id, command))
                return True

        class _Message:
            sender = "ox-1"

        app = WardSafetyApp("ward-safety")
        app.host = _Host()
        app.watch("ox-1", "pump-1")
        app.on_data("spo2", Reading(70.0, False, 1.0), _Message())  # invalid
        assert app.host.commands == []
        app.on_data("spo2", Reading(70.0, True, 2.0), _Message())
        assert app.host.commands == [("pump-1", "stop")]
        assert app.stop_commands == 1

    def test_campaign_spec_validator_rejects_bad_topology(self):
        spec = CampaignSpec(
            name="bad", scenario="ward",
            parameters={"topology": {"name": "x", "wards": []},
                        "duration_s": 60.0})
        with pytest.raises(CampaignError, match="invalid ward topology"):
            run_campaign(spec)

    def test_campaign_spec_validator_rejects_bad_posture(self):
        spec = CampaignSpec(
            name="bad", scenario="ward",
            parameters={"security_posture": "fort_knox", "duration_s": 60.0})
        with pytest.raises(CampaignError, match="security posture"):
            run_campaign(spec)

    def test_cohort_focus_patient_is_paired(self):
        # Cohort sweeps place the same focus patient regardless of the
        # swept axis: patient i is one person across configurations.
        records = {}
        for posture in ("open", "data_only"):
            spec = CampaignSpec(
                name=f"cohort-{posture}", scenario="ward",
                parameters={"duration_s": 60.0, "security_posture": posture,
                            "generate_faults": False},
                cohort_size=2, base_seed=99)
            report = run_campaign(spec)
            records[posture] = report.records
        for first, second in zip(records["open"], records["data_only"]):
            assert first["params"]["patient_index"] == \
                second["params"]["patient_index"]
            assert first["result"]["focus_cohort"] == \
                second["result"]["focus_cohort"]

    def test_topology_cli_round_trip(self, tmp_path):
        from repro.campaign.cli import main as campaign_main

        spec = small_spec()
        spec_path = tmp_path / "topo.json"
        spec_path.write_text(spec.to_json(), encoding="utf-8")
        out_path = tmp_path / "manifest.json"
        assert campaign_main(["topology", str(spec_path), "--seed", "5",
                              "--out", str(out_path), "--quiet"]) == 0
        assert out_path.read_text(encoding="utf-8") == \
            manifest_json(spec, 5) + "\n"
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "wards": [], "bogus": 1}',
                       encoding="utf-8")
        assert campaign_main(["topology", str(bad), "--quiet"]) == 2


# ------------------------------------------------------------- regressions
class TestDormantMachineryRegressions:
    """The four bugs the topology layer lit up, pinned failing-before."""

    def test_population_rejects_fraction_sum_over_one(self):
        # Before: fractions summing past 1 silently truncated the athlete
        # band (a uniform roll can never exceed 1), skewing stratification.
        population = PatientPopulation(rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="must not exceed 1"):
            population.sample(10, sensitive_fraction=0.7, athlete_fraction=0.5)
        # The boundary is inclusive: exactly 1.0 partitions cleanly.
        cohort = population.sample(10, sensitive_fraction=0.6,
                                   athlete_fraction=0.4)
        assert len(cohort) == 10

    def test_fault_added_after_arm_clamps_stale_start(self):
        # Before: add()-after-arm() with a start already in the past handed
        # the kernel a stale timestamp, which it rejects — generated plans
        # are laid out against t=0, not against when the injector learns of
        # them.  The clamp fires the fault at `now` with end unchanged.
        simulator = Simulator()
        injector = FaultInjector(simulator)
        fired = []
        injector.register_custom("late", lambda spec: fired.append(
            (simulator.now, spec.start)))
        injector.arm()
        simulator.schedule_at(10.0, lambda: None, name="advance")
        simulator.run(until=10.0)
        injector.add(FaultSpec(kind="custom", start=5.0, target="late"))
        simulator.run(until=20.0)
        assert fired == [(10.0, 5.0)]

    def test_overlapping_hypotension_episodes_keep_ground_truth(self):
        # Before: the first episode's end callback reset the MAP target to
        # baseline while the second (overlapping) episode was still running,
        # silently weakening the injected ground truth.  Episodes at 3600s/2
        # overlap: [1860, 2760) and [2460, 3360).
        config = BedMapConfig(duration_s=3600.0, bed_moves=0,
                              true_hypotension_episodes=2,
                              hypotension_duration_s=900.0, seed=3)
        scenario = BedMapScenario(config)
        intervals = scenario._episode_intervals
        assert intervals[0][1] > intervals[1][0], "episodes must overlap"
        # Just past the first episode's end the second is still active: the
        # target must still be the hypotensive value, not baseline.
        scenario.simulator.run(until=intervals[0][1] + 1.0)
        assert scenario.patient.map_model._target_map == \
            config.hypotension_map_mmhg
        # Once the last episode ends, the target is restored.
        scenario.simulator.run(until=intervals[1][1] + 1.0)
        assert scenario.patient.map_model._target_map == \
            scenario.patient.map_model.parameters.baseline_map_mmhg

    def test_attacks_only_mark_sessions_under_authenticating_postures(self):
        # Before: _execute marked every would-be attacker authenticated on
        # the policy even when the posture never authenticates — polluting
        # the session set for the rest of the campaign (and any posture
        # flipped to require_authentication mid-experiment).
        _, policy, _ = security_for_posture("open", 1)
        campaign = AttackCampaign(DeviceAuthenticator(), policy)
        results = campaign.run([Attack(kind="reprogram", attacker="mallory",
                                       target_device="pump-1",
                                       command="set_prescription")])
        assert results[0].succeeded  # open posture: attack goes through...
        assert "mallory" not in policy.authenticated_principals  # ...unmarked
        # Flipping the same policy to authenticate now blocks mallory cold.
        policy.require_authentication = True
        assert not policy.authorise("mallory", "pump-1",
                                    "set_prescription")[0]
