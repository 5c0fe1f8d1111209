"""E11: incremental re-certification after component upgrades (Section III(n)).

Builds a realistic assurance case for the closed-loop PCA system (goals over
overdose prevention, communication-failure tolerance, alarm integrity, and
security, each backed by evidence artefacts tied to components) and measures,
for a set of upgrade scenarios, how much evidence-regeneration work the
incremental approach needs compared with re-certifying from scratch.
"""

from conftest import emit

from repro.analysis.tables import Table
from repro.certification.evidence import Evidence, EvidenceStore
from repro.certification.gsn import AssuranceCase, GoalNode, SolutionNode, StrategyNode
from repro.certification.incremental import IncrementalCertifier


def build_case():
    case = AssuranceCase("closed-loop-pca")
    store = EvidenceStore()
    case.add(GoalNode("G1", "The closed-loop PCA system does not contribute to patient harm",
                      components={"system"}))
    case.add(StrategyNode("S1", "Argue over identified hazards"), parent_id="G1")
    goals = {
        "G2": ("Opioid overdose is prevented", {"supervisor", "pump", "oximeter"}),
        "G3": ("Communication failures are tolerated", {"middleware", "supervisor"}),
        "G4": ("Alarms reach the caregiver and are trustworthy", {"alarms", "ehr"}),
        "G5": ("Network attackers cannot reprogram devices", {"security", "middleware"}),
        "G6": ("Timing of the control loop meets its deadline", {"pump", "oximeter", "middleware"}),
    }
    for goal_id, (statement, components) in goals.items():
        case.add(GoalNode(goal_id, statement, components=components), parent_id="S1")

    evidence_defs = [
        ("E1", "k-induction proof of supervisor-pump interlock", "model_checking",
         {"supervisor", "pump"}, 8.0, "G2"),
        ("E2", "population simulation of closed-loop safety (bench E1)", "simulation",
         {"supervisor", "patient_model"}, 4.0, "G2"),
        ("E3", "fault-injection campaign on the device bus", "testing",
         {"middleware", "supervisor"}, 3.0, "G3"),
        ("E4", "QoS staleness fail-safe unit tests", "testing", {"supervisor"}, 1.0, "G3"),
        ("E5", "smart-alarm false-alarm evaluation (bench E4)", "simulation", {"alarms", "ehr"}, 2.0, "G4"),
        ("E6", "alarm-fatigue human-factors analysis", "analysis", {"alarms"}, 2.0, "G4"),
        ("E7", "attack campaign against command authorisation (bench E7)", "security_testing",
         {"security", "middleware"}, 3.0, "G5"),
        ("E8", "audit-log integrity verification", "testing", {"security"}, 1.0, "G5"),
        ("E9", "control-loop delay budget analysis (Figure 1)", "analysis",
         {"pump", "oximeter", "middleware"}, 1.0, "G6"),
        ("E10", "interface timing compatibility check", "analysis", {"middleware"}, 1.0, "G6"),
    ]
    for evidence_id, description, kind, components, cost, goal in evidence_defs:
        store.add(Evidence(evidence_id, description, kind, components=set(components),
                           regeneration_cost=cost))
        case.add(SolutionNode(f"Sn-{evidence_id}", description, evidence_id, components=set(components)),
                 parent_id=goal)
    return case, store


UPGRADES = [
    ("pulse oximeter firmware", {"oximeter"}),
    ("middleware / bus stack", {"middleware"}),
    ("supervisor algorithm", {"supervisor"}),
    ("pump + supervisor", {"pump", "supervisor"}),
    ("everything", {"supervisor", "pump", "oximeter", "middleware", "alarms", "ehr",
                    "security", "patient_model"}),
]


def test_e11_incremental_certification():
    def _plan_all():
        rows = []
        for name, components in UPGRADES:
            case, store = build_case()
            certifier = IncrementalCertifier(case, store)
            assert certifier.check_well_formed() == []
            plan = certifier.plan_upgrade(components)
            rows.append((name, plan))
        return rows

    rows = _plan_all()

    table = Table(
        "E11: incremental vs full re-certification cost per upgrade",
        ["upgrade", "evidence_invalidated", "goals_affected", "goals_untouched",
         "incremental_cost", "full_cost", "saving_fraction"],
        notes="cost = sum of regeneration costs of the evidence that must be redone",
    )
    for name, plan in rows:
        table.add_row(name, len(plan.invalidated_evidence), len(plan.affected_goals),
                      len(plan.untouched_goals), plan.incremental_cost, plan.full_recert_cost,
                      plan.cost_saving_fraction)
    emit(table)

    partial = [plan for name, plan in rows if name != "everything"]
    assert all(plan.cost_saving_fraction > 0.0 for plan in partial)
    everything = rows[-1][1]
    assert everything.cost_saving_fraction == 0.0
