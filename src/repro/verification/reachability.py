"""Explicit-state reachability analysis and invariant checking.

This is the monolithic baseline that experiment E6 compares compositional
techniques against: enumerate every reachable state of the composed system
and check the safety invariant in each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.verification.transition_system import State, TransitionSystem, state_to_dict


@dataclass
class InvariantResult:
    """Result of an invariant check."""

    holds: bool
    states_explored: int
    counterexample: Optional[List[State]] = None
    work_units: int = 0  # successor computations, the cost measure used by E6

    @property
    def counterexample_dicts(self) -> Optional[List[Dict[str, object]]]:
        if self.counterexample is None:
            return None
        return [state_to_dict(state) for state in self.counterexample]


def reachable_states(system: TransitionSystem, *, max_states: Optional[int] = None) -> Set[State]:
    """Breadth-first enumeration of the reachable state space."""
    visited: Set[State] = set(system.initial_states)
    frontier = deque(system.initial_states)
    while frontier:
        if max_states is not None and len(visited) >= max_states:
            break
        state = frontier.popleft()
        for successor in system.successor_states(state):
            if successor not in visited:
                visited.add(successor)
                frontier.append(successor)
    return visited


def check_invariant(
    system: TransitionSystem,
    invariant: Callable[[Dict[str, object]], bool],
    *,
    max_states: Optional[int] = None,
) -> InvariantResult:
    """Breadth-first search for an invariant violation with path reconstruction."""
    parents: Dict[State, Optional[State]] = {s: None for s in system.initial_states}
    frontier = deque(system.initial_states)
    explored = 0
    work = 0

    for state in system.initial_states:
        if not invariant(state_to_dict(state)):
            return InvariantResult(False, 1, [state], work_units=0)

    while frontier:
        if max_states is not None and len(parents) >= max_states:
            break
        state = frontier.popleft()
        explored += 1
        for successor in system.successor_states(state):
            work += 1
            if successor in parents:
                continue
            parents[successor] = state
            if not invariant(state_to_dict(successor)):
                return InvariantResult(
                    False,
                    explored,
                    _reconstruct_path(parents, successor),
                    work_units=work,
                )
            frontier.append(successor)
    return InvariantResult(True, len(parents), None, work_units=work)


def _reconstruct_path(parents: Dict[State, Optional[State]], last: State) -> List[State]:
    path = [last]
    current = last
    while parents.get(current) is not None:
        current = parents[current]
        path.append(current)
    path.reverse()
    return path
