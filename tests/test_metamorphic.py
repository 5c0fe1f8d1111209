"""Metamorphic relations checked on real scenario runs.

Each relation transforms a run's input and states how its result must
(or must not) change, so it needs no expected value of its own.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.registry import get_scenario

#: The uplinks of every device in a PCA run.  In the open-loop modes nobody
#: subscribes to any topic, so no sample on them reaches anyone.
PCA_UPLINKS = ("uplink:pulse-ox-1", "uplink:capnograph-1", "uplink:pca-pump-1")


def _pca_record(mode, seed, outage=None):
    scenario = get_scenario("pca")
    params = {"mode": mode, "duration_s": 1200.0}
    if outage is not None:
        target, start, duration = outage
        params["fault_plan"] = [{"kind": "channel_outage", "target": target,
                                 "start": start, "duration": duration}]
    return scenario.runner(scenario.resolved_params(params), seed)


class TestUnroutedOutage:
    """An outage on a channel nobody subscribes to changes no result field."""

    @pytest.mark.parametrize("mode", ["open_loop", "open_loop_monitored"])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           start=st.floats(min_value=0.0, max_value=1100.0),
           duration=st.floats(min_value=1.0, max_value=1200.0))
    @settings(max_examples=2, deadline=None)
    def test_outage_on_an_unsubscribed_uplink_changes_no_field(self, mode, seed, start,
                                                               duration):
        fault_free = _pca_record(mode, seed)
        for target in PCA_UPLINKS:
            assert _pca_record(mode, seed, (target, start, duration)) == fault_free, target

    def test_the_same_outage_changes_a_closed_loop(self):
        # Not vacuous: where the supervisor subscribes to the oximeter, an
        # outage on its uplink reaches the record.
        outage = ("uplink:pulse-ox-1", 300.0, 400.0)
        assert _pca_record("closed_loop", 7, outage) != _pca_record("closed_loop", 7)
