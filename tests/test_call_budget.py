"""A deterministic budget of Python calls per published device sample.

Every sample a device publishes crosses the same path: device tick, uplink,
bus, downlink, subscriber.  The number of Python function calls the kernel
makes per published sample is exact on any box, so it pins the cost of that
path where a timing cannot.  The count covers only ``Simulator.run`` (set-up
is not the sample path) and only ``call`` events of ``sys.setprofile``: C
builtins are not counted.

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
from repro.sim.kernel import Simulator


def calls_per_publish(run) -> float:
    """Python calls inside ``Simulator.run`` per ``DeviceBus.publish`` during ``run()``."""
    run_code = Simulator.run.__code__
    publish_code = DeviceBus.publish.__code__
    depth = calls = published = 0

    def profile(frame, event, arg):
        nonlocal depth, calls, published
        if event == "call":
            code = frame.f_code
            if code is run_code:
                depth += 1
            if depth:
                calls += 1
                if code is publish_code:
                    published += 1
        elif event == "return" and frame.f_code is run_code:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    assert published > 0
    return calls / published


@pytest.fixture(autouse=True)
def _observability_off(monkeypatch):
    # The budget is the path with observability off, as campaigns run it.
    monkeypatch.setattr(metrics, "_ENABLED", False)


def _golden_ward() -> None:
    manifest = CampaignSpec(**SCENARIO_SPECS["ward"]).expand()[0]
    get_scenario("ward").runner(dict(manifest.params), manifest.seed)


def _closed_loop_pca() -> None:
    ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=424242)).run()


# CPython 3.11 reads 24.384 (ward) and 26.020 (PCA).  It read 33.178 and
# 33.671 while the kernel clock was a property and a channel made one call
# per delivered message.
@pytest.mark.parametrize("run, budget", [
    pytest.param(_golden_ward, 25.6, id="ward"),
    pytest.param(_closed_loop_pca, 27.3, id="pca_closed_loop"),
])
def test_calls_per_published_sample_stay_within_budget(run, budget):
    reading = calls_per_publish(run)
    print(f"{reading:.3f} calls per published sample (budget {budget})")
    assert reading <= budget
