"""A deterministic budget of Python calls per published sample and per patient step.

Every sample a device publishes crosses the same path: device tick, uplink,
bus, downlink, subscriber.  The number of Python function calls the kernel
makes per published sample is exact on any box, so it pins the cost of that
path where a timing cannot.  The count covers only ``Simulator.run`` (set-up
is not the sample path) and only ``call`` events of ``sys.setprofile``: C
builtins are not counted.  The patient step, ``PatientModel.advance_by``,
gets its own budget: the calls it makes, itself included, per step.

The bounds are this repo's readings on CPython 3.11 plus under 5% headroom.
CPython 3.12 inlines comprehensions, so it reads fewer calls, never more.
"""

import sys

import pytest

from golden_workload import SCENARIO_SPECS
from repro.campaign import CampaignSpec, get_scenario
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.middleware.bus import DeviceBus
from repro.obs import metrics
from repro.patient.model import PatientModel
from repro.sim.kernel import Simulator


def calls_per(run, outer, unit) -> float:
    """Python calls inside ``outer`` per call of ``unit`` during ``run()``."""
    outer_code = outer.__code__
    unit_code = unit.__code__
    depth = calls = units = 0

    def profile(frame, event, arg):
        nonlocal depth, calls, units
        if event == "call":
            code = frame.f_code
            if code is outer_code:
                depth += 1
            if depth:
                calls += 1
                if code is unit_code:
                    units += 1
        elif event == "return" and frame.f_code is outer_code:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    assert units > 0
    return calls / units


@pytest.fixture(autouse=True)
def _observability_off(monkeypatch):
    # The budget is the path with observability off, as campaigns run it.
    monkeypatch.setattr(metrics, "_ENABLED", False)


def _golden_ward() -> None:
    manifest = CampaignSpec(**SCENARIO_SPECS["ward"]).expand()[0]
    get_scenario("ward").runner(dict(manifest.params), manifest.seed)


def _closed_loop_pca() -> None:
    ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=424242)).run()


# CPython 3.11 reads 21.346 (ward) and 21.155 (PCA).  It read 24.384 and
# 26.020 while the patient step and the sensor ticks called a function per
# check, clamp and trace row, and 33.178 and 33.671 while the kernel clock
# was a property and a channel made one call per delivered message.
@pytest.mark.parametrize("run, budget", [
    pytest.param(_golden_ward, 21.6, id="ward"),
    pytest.param(_closed_loop_pca, 21.5, id="pca_closed_loop"),
])
def test_calls_per_published_sample_stay_within_budget(run, budget):
    reading = calls_per(run, Simulator.run, DeviceBus.publish)
    print(f"{reading:.3f} calls per published sample (budget {budget})")
    assert reading <= budget


# CPython 3.11 reads 17.186: 17 calls a step, dosed or not, after the first
# step, which builds the PK propagators and decay factors (84 calls).  It
# read 35.186 (35 a step) with a call per check, clamp and trace row.
def test_calls_per_patient_step_stay_within_budget():
    reading = calls_per(_closed_loop_pca, PatientModel.advance_by, PatientModel.advance_by)
    print(f"{reading:.3f} calls per patient step (budget 18.0)")
    assert reading <= 18.0
