"""Incremental re-certification after component upgrades.

Given an assurance case, its evidence store, and a set of upgraded
components, the :class:`IncrementalCertifier` computes which evidence is
invalidated, which goals lose support, and what the cheapest regeneration
plan is -- compared with the from-scratch alternative of regenerating every
piece of evidence, which is the cost the paper says the current process-based
regime effectively imposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.certification.evidence import Evidence, EvidenceStore
from repro.certification.gsn import AssuranceCase, NodeType


@dataclass
class RecertificationPlan:
    """Outcome of change-impact analysis for one upgrade."""

    upgraded_components: Set[str]
    invalidated_evidence: List[str]
    affected_goals: List[str]
    untouched_goals: List[str]
    incremental_cost: float
    full_recert_cost: float

    @property
    def cost_saving_fraction(self) -> float:
        if self.full_recert_cost == 0:
            return 0.0
        return 1.0 - self.incremental_cost / self.full_recert_cost


class IncrementalCertifier:
    """Change-impact analysis over an assurance case and evidence store."""

    def __init__(self, case: AssuranceCase, evidence: EvidenceStore) -> None:
        self.case = case
        self.evidence = evidence

    # ---------------------------------------------------------------- checks
    def check_well_formed(self) -> List[str]:
        """Structural problems that would make certification claims hollow."""
        problems: List[str] = []
        if self.case.root_id is None:
            problems.append("assurance case has no root goal")
        for goal in self.case.undeveloped_goals():
            problems.append(f"goal {goal.node_id!r} has no supporting evidence")
        for solution in self.case.solutions():
            if solution.evidence_id is None or solution.evidence_id not in self.evidence:
                problems.append(f"solution {solution.node_id!r} references missing evidence")
        return problems

    # ------------------------------------------------------------- impact
    def plan_upgrade(self, upgraded_components: Set[str]) -> RecertificationPlan:
        """Compute the re-certification plan for upgrading ``upgraded_components``."""
        invalidated: List[str] = []
        for component in upgraded_components:
            for evidence in self.evidence.depending_on(component):
                if evidence.evidence_id not in invalidated:
                    invalidated.append(evidence.evidence_id)

        affected_goal_ids: Set[str] = set()
        for solution in self.case.solutions():
            if solution.evidence_id in invalidated:
                for ancestor_id in self.case.ancestors(solution.node_id):
                    if self.case.node(ancestor_id).node_type == NodeType.GOAL:
                        affected_goal_ids.add(ancestor_id)
        # Goals whose own components were upgraded are affected as well.
        for goal in self.case.goals():
            if goal.components & upgraded_components:
                affected_goal_ids.add(goal.node_id)

        all_goal_ids = {goal.node_id for goal in self.case.goals()}
        untouched = sorted(all_goal_ids - affected_goal_ids)

        incremental_cost = sum(self.evidence.get(eid).regeneration_cost for eid in invalidated)
        full_cost = sum(evidence.regeneration_cost for evidence in self.evidence.all)

        return RecertificationPlan(
            upgraded_components=set(upgraded_components),
            invalidated_evidence=invalidated,
            affected_goals=sorted(affected_goal_ids),
            untouched_goals=untouched,
            incremental_cost=incremental_cost,
            full_recert_cost=full_cost,
        )

    def apply_upgrade(self, upgraded_components: Set[str]) -> RecertificationPlan:
        """Plan the upgrade and mark the affected evidence invalidated."""
        plan = self.plan_upgrade(upgraded_components)
        for evidence_id in plan.invalidated_evidence:
            self.evidence.get(evidence_id).invalidate()
        return plan

    def regenerate(self, evidence_ids: List[str]) -> None:
        """Mark the listed evidence regenerated (after re-running the analyses)."""
        for evidence_id in evidence_ids:
            self.evidence.get(evidence_id).regenerate()

    def certification_complete(self) -> bool:
        """True when the case is well-formed and no evidence is invalidated."""
        return not self.check_well_formed() and not self.evidence.invalidated()
