"""A non-finite dose, rate or step is refused where it enters.

A NaN bolus used to pass every ``< 0`` check and then vanish in the PK
model (``max(0.0, nan)`` is ``0.0``): the run reported no harm and no
drug, with ``total_drug_delivered_mg`` NaN.  Each entry point now rejects
NaN and infinity with an error that names the offending argument, and a
PCA campaign spec is refused before any run starts.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.registry import CampaignError, get_scenario
from repro.core.loop import PCASystemConfig
from repro.devices.pca_pump import PCAPrescription, PCAPump
from repro.patient.map_model import ArterialPressureModel, ArterialPressureParameters
from repro.patient.model import PatientModel
from repro.patient.pharmacodynamics import PDParameters, RespiratoryDepressionPD
from repro.patient.pharmacokinetics import PKParameters, TwoCompartmentPK
from repro.patient.population import DEFAULT_PATIENT
from repro.patient.vitals import VitalSignsModel, VitalSignsParameters
from repro.scenarios.bed_map import BedMapConfig
from repro.scenarios.home import HomeMonitoringConfig
from repro.scenarios.proton import ProtonSchedulingConfig
from repro.sim.channel import Channel
from repro.sim.kernel import Simulator

NON_FINITE = (math.nan, math.inf, -math.inf)
PRESCRIPTION_FIELDS = ("bolus_dose_mg", "lockout_interval_s", "hourly_limit_mg",
                       "basal_rate_mg_per_hr", "concentration_mg_per_ml")
CAMPAIGN_PRESCRIPTION_PARAMS = ("bolus_dose_mg", "lockout_interval_s", "hourly_limit_mg",
                                "basal_rate_mg_per_hr")


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", PRESCRIPTION_FIELDS)
def test_prescription_requires_finite_fields(name, bad):
    with pytest.raises(ValueError, match=name):
        PCAPrescription(**{name: bad}).validate()


# A NaN parameter validated, and the run died later (a NaN PK volume inside
# np.linalg.eig) or silently computed NaN physiology.  Every numeric field of
# every patient parameter class is refused where its model is built.
PARAMETER_MODELS = (
    (PKParameters, TwoCompartmentPK),
    (PDParameters, RespiratoryDepressionPD),
    (VitalSignsParameters, VitalSignsModel),
    (ArterialPressureParameters, ArterialPressureModel),
)
PARAMETER_FIELDS = [(parameters, model, field.name)
                    for parameters, model in PARAMETER_MODELS
                    for field in dataclasses.fields(parameters)]
PATIENT_FIELDS = [field.name for field in dataclasses.fields(DEFAULT_PATIENT)
                  if type(getattr(DEFAULT_PATIENT, field.name)) is float]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("parameters, model, name", PARAMETER_FIELDS,
                         ids=[f"{p.__name__}.{name}" for p, _, name in PARAMETER_FIELDS])
def test_model_rejects_non_finite_parameter(parameters, model, name, bad):
    with pytest.raises(ValueError, match=name):
        model(parameters(**{name: bad}))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", PATIENT_FIELDS)
def test_patient_rejects_non_finite_parameter(name, bad):
    with pytest.raises(ValueError, match=name):
        PatientModel(dataclasses.replace(DEFAULT_PATIENT, **{name: bad}))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_parameter_scaling_rejects_non_finite_factors(bad):
    with pytest.raises(ValueError, match="weight_kg"):
        PKParameters().scaled_for_weight(bad)
    with pytest.raises(ValueError, match="clearance_multiplier"):
        PKParameters().scaled_for_weight(70.0, bad)
    with pytest.raises(ValueError, match="sensitivity"):
        PDParameters().with_sensitivity(bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_pk_rejects_non_finite_bolus_and_leaves_the_state(bad):
    pk = TwoCompartmentPK(PKParameters())
    pk.add_bolus(1.0)
    with pytest.raises(ValueError, match="dose_mg"):
        pk.add_bolus(bad)
    assert pk.central_amount_mg == 1.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_pk_advance_rejects_non_finite_step_and_rate(bad):
    pk = TwoCompartmentPK(PKParameters())
    with pytest.raises(ValueError, match="dt_min"):
        pk.advance(bad)
    with pytest.raises(ValueError, match="infusion_rate_mg_per_min"):
        pk.advance(1.0, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_pd_vitals_and_map_reject_non_finite_step(bad):
    with pytest.raises(ValueError, match="dt_min"):
        RespiratoryDepressionPD(PDParameters()).advance(bad, 0.01)
    with pytest.raises(ValueError, match="plasma_concentration_mg_per_l"):
        RespiratoryDepressionPD(PDParameters()).advance(1.0, bad)
    with pytest.raises(ValueError, match="dt_min"):
        VitalSignsModel().advance(bad, 1.0, 0.0)
    with pytest.raises(ValueError, match="dt_min"):
        ArterialPressureModel().advance(bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_patient_rejects_non_finite_bolus_and_rate(bad):
    patient = PatientModel()
    with pytest.raises(ValueError, match="dose_mg"):
        patient.infuse_bolus(bad)
    with pytest.raises(ValueError, match="rate_mg_per_min"):
        patient.set_infusion_rate(bad)
    assert patient.total_drug_delivered_mg == 0.0
    assert patient.infusion_rate_mg_per_min == 0.0


@pytest.mark.parametrize("cohort_size", (0, 4))
@pytest.mark.parametrize("name", CAMPAIGN_PRESCRIPTION_PARAMS)
def test_pca_campaign_rejects_non_finite_prescription(name, cohort_size):
    for value in (math.nan, math.inf, [1.0, math.nan]):
        spec = CampaignSpec(name="nan-dose", scenario="pca",
                            parameters={name: value}, cohort_size=cohort_size)
        with pytest.raises(CampaignError, match=name):
            spec.validate()


def test_pca_campaign_accepts_finite_prescription_sweeps():
    CampaignSpec(name="doses", scenario="pca",
                 parameters={"bolus_dose_mg": [0.5, 1, 2.0], "basal_rate_mg_per_hr": 0,
                             "button_press_period_s": [300.0, 600]},
                 cohort_size=2).validate()


DURATION_SCENARIOS = ("pca", "ward", "bed_map", "proton", "home")


@pytest.mark.parametrize("scenario", DURATION_SCENARIOS)
def test_campaign_rejects_non_finite_duration(scenario):
    # A NaN horizon passed every `<= 0` check and then hung the run: the
    # kernel's `time > until` is never true for until=NaN.
    for value in (math.nan, math.inf, [600.0, math.nan], 0.0, "600"):
        spec = CampaignSpec(name="nan-duration", scenario=scenario, parameters={"duration_s": value})
        with pytest.raises(CampaignError, match="duration_s"):
            spec.validate()


@pytest.mark.parametrize("scenario", DURATION_SCENARIOS)
def test_campaign_accepts_finite_duration_sweeps(scenario):
    CampaignSpec(name="durations", scenario=scenario,
                 parameters={"duration_s": [600.0, 1200]}).validate()


@pytest.mark.parametrize("bad", NON_FINITE)
def test_scenario_configs_reject_non_finite_duration(bad):
    for config in (PCASystemConfig(duration_s=bad), BedMapConfig(duration_s=bad),
                   ProtonSchedulingConfig(duration_s=bad), HomeMonitoringConfig(duration_s=bad)):
        with pytest.raises(ValueError, match="duration_s must be finite and positive"):
            config.validate()


@pytest.mark.parametrize("bad", NON_FINITE)
def test_ward_runner_rejects_non_finite_duration(bad):
    scenario = get_scenario("ward")
    params = scenario.resolved_params({})
    params["duration_s"] = bad
    with pytest.raises(ValueError, match="^duration_s must be finite and positive"):
        scenario.runner(params, 1)


# A NaN press period became a 30 s one (``max(30.0, normal(nan, ...))`` is
# 30.0), an infinite one failed every run inside the kernel, and ``true``
# was taken for 1 s.
@pytest.mark.parametrize("value", (math.nan, math.inf, True, [420.0, math.nan], [math.inf], [300.0, True]))
def test_pca_campaign_rejects_bad_button_press_period(value):
    spec = CampaignSpec(name="press", scenario="pca", parameters={"button_press_period_s": value})
    with pytest.raises(CampaignError, match="button_press_period_s"):
        spec.validate()


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_pca_config_requires_finite_button_press_period(bad):
    with pytest.raises(ValueError, match="button_press_period_s must be finite and positive"):
        PCASystemConfig(button_press_period_s=bad).validate()


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_pump_rejects_non_finite_command_delay(bad):
    # A NaN delay passed `< 0` and the first stop raised inside the kernel.
    with pytest.raises(ValueError, match="command_delay_s"):
        PCAPump("pca-pump-1", PatientModel(), command_delay_s=bad)


def test_channel_rejects_nan_outage_start():
    channel = Channel(Simulator(), "uplink:dev-a")
    with pytest.raises(ValueError, match="outage start"):
        channel.add_outage(math.nan, 5.0)
    assert channel.deterministic


def test_channel_rejects_nan_outage_end():
    # Accepted, the outage never applied, and the link still left the
    # deterministic route.
    channel = Channel(Simulator(), "uplink:dev-a")
    with pytest.raises(ValueError, match="outage end"):
        channel.add_outage(1.0, math.nan)
    assert channel.deterministic
    channel.add_outage(1.0, math.inf)
    assert channel.in_outage(1e9)
