"""Scenario-family generators over an expanded topology.

These turn the *declarative* parts of a :class:`TopologySpec` — per-ward
fault rates and a security posture — into the *concrete* artefacts the
existing machinery consumes: ``fault_plan`` entries for
:mod:`repro.sim.faults`, :class:`~repro.security.attacks.Attack` lists for
:mod:`repro.security.attacks`, and posture-configured policies from
:mod:`repro.security.policy`.  All sampling is position-independent via
:func:`repro.sim.random.derive_seed`, so a generated plan depends only on
``(spec, seed)`` — the same contract the campaign layer's run seeding obeys.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.security.attacks import Attack
from repro.security.auth import DeviceAuthenticator, DeviceCredential
from repro.security.policy import CommandAuthorizationPolicy, SecurityPosture
from repro.sim.faults import FaultSpec
from repro.sim.random import derive_seed
from repro.topology.spec import TopologyError, TopologySpec

#: Device types exposing freeze/unfreeze hooks (stuck_sensor targets).
FREEZABLE_DEVICE_TYPES = ("pulse_oximeter", "capnograph")

#: Security postures a ward campaign can sweep.
SECURITY_POSTURES = ("open", "allowlisted", "data_only")


# ---------------------------------------------------------------- fault plans
def _poisson_starts(rng: np.random.Generator, rate_per_hour: float,
                    duration_s: float) -> List[float]:
    """Fault start times for one target: Poisson count, uniform placement."""
    expected = rate_per_hour * duration_s / 3600.0
    count = int(rng.poisson(expected))
    if count == 0:
        return []
    return sorted(float(start) for start in rng.uniform(0.0, duration_s, count))


def generate_fault_plan(
    spec: TopologySpec,
    seed: int,
    duration_s: float,
    *,
    manifest: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Compile each ward's :class:`FaultProfile` into ``fault_plan`` entries.

    Rates are per device-hour: each realised eligible device draws its own
    Poisson fault count from a stream named after the device, so adding a bed
    (or re-rolling a device mix) never perturbs another device's faults.
    Every entry round-trips through :class:`~repro.sim.faults.FaultSpec`, so
    the returned plan is guaranteed valid against ``FAULT_KINDS``.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise TopologyError(f"fault plan duration_s must be finite and positive, got {duration_s!r}")
    if manifest is None:
        from repro.topology.expand import expand_topology

        manifest = expand_topology(spec, seed)
    profiles = {ward.name: ward.faults for ward in spec.wards}

    entries: List[Dict[str, Any]] = []
    for ward_manifest in manifest["wards"]:
        profile = profiles[ward_manifest["name"]]
        if not profile.any_faults:
            continue
        for bed in ward_manifest["beds"]:
            for device_type, device_id in zip(bed["devices"], bed["device_ids"]):
                rng = np.random.default_rng(derive_seed(
                    seed, f"faults:{spec.name}:{device_id}"))
                # Draw all three kinds from the one per-device stream, in a
                # fixed order, so the plan for a device is self-contained.
                for start in _poisson_starts(rng, profile.channel_outage_rate,
                                             duration_s):
                    entries.append({
                        "kind": "channel_outage",
                        "start": start,
                        "duration": profile.channel_outage_duration_s,
                        "target": f"uplink:{device_id}",
                    })
                if device_type in FREEZABLE_DEVICE_TYPES:
                    for start in _poisson_starts(rng, profile.stuck_sensor_rate,
                                                 duration_s):
                        entries.append({
                            "kind": "stuck_sensor",
                            "start": start,
                            "duration": profile.stuck_sensor_duration_s,
                            "target": device_id,
                        })
                if device_type == "pca_pump":
                    for start in _poisson_starts(rng, profile.misprogramming_rate,
                                                 duration_s):
                        entries.append({
                            "kind": "misprogramming",
                            "start": start,
                            "duration": 0.0,
                            "target": device_id,
                            "parameters": {
                                "rate_multiplier":
                                    profile.misprogramming_rate_multiplier,
                            },
                        })
    entries.sort(key=lambda entry: (entry["start"], entry["kind"], entry["target"]))
    # Validate every entry against FAULT_KINDS and normalise field types.
    return [FaultSpec.from_dict(entry).as_dict() for entry in entries]


# -------------------------------------------------------------- attack plans
def generate_attack_plan(
    spec: TopologySpec,
    seed: int,
    *,
    manifest: Optional[Dict[str, Any]] = None,
    reprogram: int = 4,
    replay: int = 2,
    flood: int = 2,
    insider: int = 1,
) -> List[Attack]:
    """Generate an attack campaign against the topology's realised pumps.

    The mix mirrors :func:`repro.security.attacks.standard_reprogramming_campaign`
    but targets are drawn (deterministically, per seed) from the pumps the
    topology actually realised.  Returns an empty list when no bed carries a
    pump — there is nothing harmful to command.
    """
    for name, count in (("reprogram", reprogram), ("replay", replay),
                        ("flood", flood), ("insider", insider)):
        if count < 0:
            raise TopologyError(f"attack count {name} must be non-negative")
    if manifest is None:
        from repro.topology.expand import expand_topology

        manifest = expand_topology(spec, seed)
    from repro.topology.expand import manifest_device_ids

    pumps = manifest_device_ids(manifest, "pca_pump")
    if not pumps:
        return []
    rng = np.random.default_rng(derive_seed(seed, f"attacks:{spec.name}"))

    def _target() -> str:
        return pumps[int(rng.integers(len(pumps)))]

    attacks: List[Attack] = []
    for index in range(reprogram):
        attacks.append(Attack(kind="reprogram", attacker=f"external-{index}",
                              target_device=_target(), command="set_prescription"))
    for index in range(replay):
        attacks.append(Attack(kind="replay", attacker=f"eavesdropper-{index}",
                              target_device=_target(), command="resume",
                              replayed_response=b"\x00" * 32))
    for index in range(flood):
        attacks.append(Attack(kind="flood", attacker=f"flooder-{index}",
                              target_device=_target(), command="stop"))
    for index in range(insider):
        attacks.append(Attack(kind="insider", attacker=f"insider-{index}",
                              target_device=_target(), command="set_prescription",
                              uses_stolen_credential=True))
    return attacks


# ---------------------------------------------------------- security posture
def security_for_posture(
    posture: str,
    seed: int,
    *,
    supervisor_principal: str = "safety",
    pump_ids: Tuple[str, ...] = (),
    insider_principals: Tuple[str, ...] = (),
) -> Tuple[DeviceAuthenticator, CommandAuthorizationPolicy,
           Dict[str, DeviceCredential]]:
    """Build the (authenticator, policy, stolen credentials) for a posture.

    The legitimate supervisor principal is provisioned and — when the
    posture authenticates at all — taken through a real challenge-response
    exchange before being marked on the policy.  Insider principals are
    provisioned too, with their credentials returned as the "stolen" set an
    :class:`~repro.security.attacks.AttackCampaign` hands its insiders.
    """
    if posture not in SECURITY_POSTURES:
        raise TopologyError(
            f"unknown security posture {posture!r}; expected one of "
            f"{SECURITY_POSTURES}")
    authenticator = DeviceAuthenticator()

    def _key(principal: str) -> bytes:
        return derive_seed(seed, f"key:{principal}").to_bytes(8, "little")

    supervisor_credential = authenticator.provision(
        supervisor_principal, _key(supervisor_principal))
    stolen: Dict[str, DeviceCredential] = {}
    for principal in insider_principals:
        stolen[principal] = authenticator.provision(principal, _key(principal))

    if posture == "open":
        policy = CommandAuthorizationPolicy(
            posture=SecurityPosture.OPEN, require_authentication=False)
    elif posture == "allowlisted":
        policy = CommandAuthorizationPolicy(
            posture=SecurityPosture.ALLOWLISTED, require_authentication=True)
        for pump_id in pump_ids:
            policy.allow(supervisor_principal, pump_id, "stop")
    else:
        policy = CommandAuthorizationPolicy(
            posture=SecurityPosture.DATA_ONLY, require_authentication=True)

    if policy.require_authentication:
        if authenticator.authenticate(supervisor_credential):
            policy.mark_authenticated(supervisor_principal)
    return authenticator, policy, stolen
