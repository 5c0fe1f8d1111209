"""Command authorisation policies for the device network.

Three postures span the design space the paper describes:

* ``open`` -- any principal may send any command to any device (maximum
  closed-loop flexibility, maximum attack surface);
* ``allowlisted`` -- only registered (principal, device, command) triples
  are allowed; supervisors get exactly the commands their scenario needs;
* ``data_only`` -- devices accept no network commands at all (the current
  manufacturers' posture; closed-loop control is impossible).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class SecurityPosture(enum.Enum):
    OPEN = "open"
    ALLOWLISTED = "allowlisted"
    DATA_ONLY = "data_only"


@dataclass
class CommandAuthorizationPolicy:
    """Evaluates whether a principal may send a command to a device."""

    posture: SecurityPosture = SecurityPosture.ALLOWLISTED
    allowlist: Set[Tuple[str, str, str]] = field(default_factory=set)
    authenticated_principals: Set[str] = field(default_factory=set)
    require_authentication: bool = True
    decisions: List[Tuple[str, str, str, bool, str]] = field(default_factory=list)

    # ------------------------------------------------------------ management
    def allow(self, principal: str, device_id: str, command: str) -> None:
        """Add one (principal, device, command) triple to the allowlist."""
        self.allowlist.add((principal, device_id, command))

    def allow_app_commands(self, principal: str, device_id: str, commands: List[str]) -> None:
        for command in commands:
            self.allow(principal, device_id, command)

    def mark_authenticated(self, principal: str) -> None:
        self.authenticated_principals.add(principal)

    # ------------------------------------------------------------ evaluation
    def authorise(self, principal: str, device_id: str, command: str) -> Tuple[bool, str]:
        """Return (allowed, reason); also records the decision."""
        allowed, reason = self._evaluate(principal, device_id, command)
        self.decisions.append((principal, device_id, command, allowed, reason))
        return allowed, reason

    def _evaluate(self, principal: str, device_id: str, command: str) -> Tuple[bool, str]:
        if self.posture == SecurityPosture.DATA_ONLY:
            return False, "data-only posture: no network commands accepted"
        if self.require_authentication and principal not in self.authenticated_principals:
            return False, f"principal {principal!r} is not authenticated"
        if self.posture == SecurityPosture.OPEN:
            return True, "open posture"
        if (principal, device_id, command) in self.allowlist:
            return True, "allowlisted"
        return False, f"({principal}, {device_id}, {command}) not in allowlist"

    # ------------------------------------------------------------ accounting
    @property
    def denied_count(self) -> int:
        return sum(1 for *_rest, allowed, _reason in self.decisions if not allowed)

    @property
    def allowed_count(self) -> int:
        return sum(1 for *_rest, allowed, _reason in self.decisions if allowed)

    def as_authoriser(self):
        """Adapter usable as the SupervisorHost ``command_authoriser`` callback."""

        def authorise(app_id: str, device_id: str, command: str) -> Tuple[bool, str]:
            return self.authorise(app_id, device_id, command)

        return authorise


def closed_loop_attack_surface(policy: CommandAuthorizationPolicy, critical_commands: Set[Tuple[str, str]]) -> Dict[str, float]:
    """Quantify the attack surface a policy exposes.

    ``critical_commands`` is the set of (device_id, command) pairs whose abuse
    can harm the patient (e.g. ``("pca-pump-1", "resume")``,
    ``("pca-pump-1", "set_prescription")``).  Returns the fraction of those
    reachable by (a) an authenticated-but-unauthorised insider and (b) an
    unauthenticated attacker, under the policy.
    """
    insider_reachable = 0
    outsider_reachable = 0
    for device_id, command in critical_commands:
        if policy.posture == SecurityPosture.OPEN:
            insider_reachable += 1
            if not policy.require_authentication:
                outsider_reachable += 1
        elif policy.posture == SecurityPosture.ALLOWLISTED:
            if any(entry[1] == device_id and entry[2] == command for entry in policy.allowlist):
                # Reachable only by compromising an allowlisted principal.
                insider_reachable += 1
        # DATA_ONLY exposes nothing.
    total = max(1, len(critical_commands))
    return {
        "insider_reachable_fraction": insider_reachable / total,
        "outsider_reachable_fraction": outsider_reachable / total,
    }
