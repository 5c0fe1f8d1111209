"""E6: compositional verification scalability (Sections III(l), III(n)).

A family of device-network models of growing size (one supervisor-style
monitor plus N pumps, each pump synchronising with the monitor on alarm /
clear actions) is verified for the global safety property "no pump infuses
while disabled".  Three strategies are compared on work performed (successor
computations) and states explored:

* monolithic explicit reachability on the full composition;
* bounded model checking on the full composition;
* assume-guarantee reasoning with one contract per component.

The paper's claim is the scaling shape: monolithic work grows with the
product of component state spaces, compositional work with their sum.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.verification.assume_guarantee import Contract, assume_guarantee_check
from repro.verification.bmc import bounded_model_check
from repro.verification.reachability import check_invariant
from repro.verification.transition_system import Rule, TransitionSystem, compose_many

PUMP_COUNTS = (1, 2, 3, 4)


def make_pump(index):
    infusing = f"infusing{index}"
    enabled = f"enabled{index}"
    return TransitionSystem(
        f"pump{index}",
        variables={infusing: (False, True), enabled: (True, False)},
        initial_states=[{infusing: False, enabled: True}],
        rules=[
            Rule(guard=lambda s, e=enabled, i=infusing: s[e] and not s[i],
                 update=lambda s, i=infusing: {i: True}, name=f"start{index}"),
            Rule(guard=lambda s, i=infusing: s[i],
                 update=lambda s, i=infusing: {i: False}, name=f"finish{index}"),
            Rule(guard=lambda s: True,
                 update=lambda s, e=enabled, i=infusing: {e: False, i: False},
                 label="alarm", name=f"disable{index}"),
            Rule(guard=lambda s, e=enabled: not s[e],
                 update=lambda s, e=enabled: {e: True}, label="clear", name=f"enable{index}"),
        ],
    )


def make_monitor():
    return TransitionSystem(
        "monitor",
        variables={"danger": (False, True)},
        initial_states=[{"danger": False}],
        rules=[
            Rule(guard=lambda s: not s["danger"], update=lambda s: {"danger": True}, name="deteriorate"),
            Rule(guard=lambda s: s["danger"], update=lambda s: {}, label="alarm", name="alarm"),
            Rule(guard=lambda s: s["danger"], update=lambda s: {"danger": False}, label="clear",
                 name="clear"),
        ],
    )


def safety_property(pumps):
    def prop(state):
        for index in range(pumps):
            if state.get(f"infusing{index}", False) and not state.get(f"enabled{index}", True):
                return False
        return True
    return prop


def run_family():
    rows = []
    for pumps in PUMP_COUNTS:
        components = [make_monitor()] + [make_pump(i) for i in range(pumps)]
        composed = compose_many(list(components), name=f"network-{pumps}")
        prop = safety_property(pumps)

        monolithic = check_invariant(composed, prop)
        bmc = bounded_model_check(composed, prop, bound=8)
        contracts = [Contract(component="monitor", assumption=lambda s: True, guarantee=lambda s: True)]
        for index in range(pumps):
            contracts.append(Contract(
                component=f"pump{index}",
                assumption=lambda s: True,
                guarantee=lambda s, i=index: not (s[f"infusing{i}"] and not s[f"enabled{i}"]),
            ))
        compositional = assume_guarantee_check(components, contracts, prop)
        assert monolithic.holds and bmc.safe_within_bound and compositional.holds
        rows.append((pumps, monolithic, bmc, compositional))
    return rows


def test_e6_compositional_verification():
    rows = run_family()

    table = Table(
        "E6: verification work vs number of composed pump devices",
        ["pumps", "monolithic_states", "monolithic_work", "bmc_work",
         "assume_guarantee_states", "assume_guarantee_work"],
        notes="monolithic work grows with the product of component state spaces, compositional with their sum",
    )
    for pumps, monolithic, bmc, compositional in rows:
        table.add_row(pumps, monolithic.states_explored, monolithic.work_units, bmc.work_units,
                      compositional.total_states, compositional.total_work)
    emit(table)

    # Scaling shape: monolithic grows much faster than assume-guarantee.
    first, last = rows[0], rows[-1]
    monolithic_growth = last[1].work_units / max(1, first[1].work_units)
    compositional_growth = last[3].total_work / max(1, first[3].total_work)
    assert monolithic_growth > compositional_growth
