"""Finite transition systems with synchronous composition.

States are immutable assignments of variables to hashable values (booleans or
small enumerations).  A :class:`TransitionSystem` is defined by its variable
domains, a set of initial states, and a transition relation given as a list
of guarded update rules; the explicit representation keeps the checkers
simple and is adequate for device-protocol models with up to a few million
reachable states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

# A state is a frozenset of (variable, value) pairs so it is hashable.
State = FrozenSet[Tuple[str, object]]


def make_state(assignment: Mapping[str, object]) -> State:
    """Build a :data:`State` from a plain dict."""
    return frozenset(assignment.items())


def state_to_dict(state: State) -> Dict[str, object]:
    return dict(state)


@dataclass(frozen=True)
class Rule:
    """A guarded transition rule.

    guard:
        Predicate over the current state dict.
    update:
        Function mapping the current state dict to a dict of variable
        updates (unmentioned variables keep their values).
    label:
        Action label used by composition for synchronisation: rules with the
        same non-empty label in different systems fire together.
    """

    guard: Callable[[Dict[str, object]], bool]
    update: Callable[[Dict[str, object]], Dict[str, object]]
    label: str = ""
    name: str = ""


class TransitionSystem:
    """An explicit finite transition system."""

    def __init__(
        self,
        name: str,
        variables: Mapping[str, Iterable[object]],
        initial_states: Iterable[Mapping[str, object]],
        rules: Iterable[Rule],
    ) -> None:
        self.name = name
        self.variables: Dict[str, Tuple[object, ...]] = {
            var: tuple(domain) for var, domain in variables.items()
        }
        for var, domain in self.variables.items():
            if not domain:
                raise ValueError(f"variable {var!r} has an empty domain")
        self.initial_states: List[State] = [make_state(dict(s)) for s in initial_states]
        if not self.initial_states:
            raise ValueError("at least one initial state is required")
        for state in self.initial_states:
            self._check_state(state)
        self.rules: List[Rule] = list(rules)

    # ----------------------------------------------------------------- sizes
    @property
    def state_space_size(self) -> int:
        size = 1
        for domain in self.variables.values():
            size *= len(domain)
        return size

    def _check_state(self, state: State) -> None:
        assignment = dict(state)
        if set(assignment) != set(self.variables):
            missing = set(self.variables) - set(assignment)
            extra = set(assignment) - set(self.variables)
            raise ValueError(
                f"state variables mismatch in {self.name!r}: missing {missing}, extra {extra}"
            )
        for var, value in assignment.items():
            if value not in self.variables[var]:
                raise ValueError(f"value {value!r} not in domain of {var!r}")

    # ------------------------------------------------------------ successors
    def successors(self, state: State) -> List[Tuple[State, str]]:
        """All ``(next_state, rule_name)`` pairs enabled from ``state``.

        A state with no enabled rule stutters (self-loop), so every run is
        infinite and safety checking does not report spurious deadlock
        violations.
        """
        assignment = dict(state)
        result: List[Tuple[State, str]] = []
        for rule in self.rules:
            if rule.guard(assignment):
                updates = rule.update(assignment)
                next_assignment = dict(assignment)
                next_assignment.update(updates)
                next_state = make_state(next_assignment)
                self._check_state(next_state)
                result.append((next_state, rule.name or rule.label or "rule"))
        if not result:
            result.append((state, "stutter"))
        return result

    def successor_states(self, state: State) -> List[State]:
        return [s for s, _ in self.successors(state)]

    # ------------------------------------------------------------ evaluation
    def random_run(self, length: int, rng, predicate=None) -> List[State]:
        """A random run of ``length`` steps (used by simulation-based testing)."""
        state = self.initial_states[rng.integers(0, len(self.initial_states))]
        run = [state]
        for _ in range(length):
            successors = self.successor_states(state)
            state = successors[rng.integers(0, len(successors))]
            run.append(state)
            if predicate is not None and not predicate(dict(state)):
                break
        return run


def compose(first: TransitionSystem, second: TransitionSystem, name: Optional[str] = None) -> TransitionSystem:
    """Synchronous parallel composition of two transition systems.

    Rules with matching non-empty labels fire together (synchronisation on
    shared actions); unlabelled rules interleave.  Shared variables are not
    allowed -- communication is by synchronised labels only, which keeps the
    composition semantics simple and mirrors message-based device interaction.
    """
    shared_vars = set(first.variables) & set(second.variables)
    if shared_vars:
        raise ValueError(f"cannot compose systems sharing variables: {sorted(shared_vars)}")

    variables: Dict[str, Tuple[object, ...]] = {}
    variables.update(first.variables)
    variables.update(second.variables)

    initial_states = []
    for s1 in first.initial_states:
        for s2 in second.initial_states:
            merged = dict(s1)
            merged.update(dict(s2))
            initial_states.append(merged)

    rules: List[Rule] = []
    labels_first = {rule.label for rule in first.rules if rule.label}
    labels_second = {rule.label for rule in second.rules if rule.label}
    shared_labels = labels_first & labels_second

    def _lift(rule: Rule, own_vars: set) -> Rule:
        def guard(state: Dict[str, object], rule=rule, own_vars=own_vars) -> bool:
            local = {k: v for k, v in state.items() if k in own_vars}
            return rule.guard(local)

        def update(state: Dict[str, object], rule=rule, own_vars=own_vars) -> Dict[str, object]:
            local = {k: v for k, v in state.items() if k in own_vars}
            return rule.update(local)

        return Rule(guard=guard, update=update, label=rule.label, name=rule.name)

    first_vars = set(first.variables)
    second_vars = set(second.variables)

    # Interleaved (unshared-label or unlabelled) rules.
    for rule in first.rules:
        if rule.label not in shared_labels:
            rules.append(_lift(rule, first_vars))
    for rule in second.rules:
        if rule.label not in shared_labels:
            rules.append(_lift(rule, second_vars))

    # Synchronised rules: both guards must hold, both updates apply.
    for label in shared_labels:
        for rule1 in [r for r in first.rules if r.label == label]:
            for rule2 in [r for r in second.rules if r.label == label]:
                lifted1 = _lift(rule1, first_vars)
                lifted2 = _lift(rule2, second_vars)

                def guard(state, g1=lifted1.guard, g2=lifted2.guard) -> bool:
                    return g1(state) and g2(state)

                def update(state, u1=lifted1.update, u2=lifted2.update) -> Dict[str, object]:
                    merged = {}
                    merged.update(u1(state))
                    merged.update(u2(state))
                    return merged

                rules.append(
                    Rule(
                        guard=guard,
                        update=update,
                        label=label,
                        name=f"{rule1.name or label}&{rule2.name or label}",
                    )
                )

    return TransitionSystem(
        name=name or f"{first.name}||{second.name}",
        variables=variables,
        initial_states=initial_states,
        rules=rules,
    )


def compose_many(systems: List[TransitionSystem], name: Optional[str] = None) -> TransitionSystem:
    """Left-fold composition of a list of systems."""
    if not systems:
        raise ValueError("at least one system is required")
    result = systems[0]
    for system in systems[1:]:
        result = compose(result, system)
    if name is not None:
        result.name = name
    return result
