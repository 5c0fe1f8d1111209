"""Chaos scenario: a scripted misbehaving workload for resilience testing.

Every fault-tolerance claim the campaign engine makes (retry, quarantine,
timeout, worker-death survival) needs a workload that fails *on purpose, at
a chosen run, in a chosen way*.  This scenario is that workload: its
parameters name the repeat indices at which runs raise, hang, flake, or
SIGKILL their own worker, and every run that does none of those returns a
value derived purely from its seed — so the surviving records of a chaos
campaign are byte-identical across serial, parallel, crashed-and-resumed,
and degraded executions, which is exactly what the resilience tests assert.

It is registered like any clinical scenario, so the CI chaos job can drive
it end-to-end through ``python -m repro.campaign run``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Set, Union

from repro.campaign.registry import campaign_scenario
from repro.campaign.resilience import TransientError, current_attempt, in_worker
from repro.sim.random import derive_seed


def _indices(value: Union[int, str]) -> Set[int]:
    """Parse a trigger parameter: an int, or a comma-separated index list.

    ``""`` (the default) triggers nothing; ``5`` triggers at repeat 5;
    ``"5,17,140"`` triggers at each listed repeat — letting one campaign
    script several failures without sweeping duplicate values.
    """
    if isinstance(value, int):
        return {value} if value >= 0 else set()
    text = str(value).strip()
    if not text:
        return set()
    return {int(part) for part in text.split(",")}


@campaign_scenario(
    "chaos",
    defaults={
        "behavior": "ok",
        "raise_at": "",
        "flaky_at": "",
        "hang_at": "",
        "kill_at": "",
        "fail_attempts": 2,
        "hang_s": 60.0,
        "work_s": 0.0,
        "cell": 0,
    },
    result_fields=("behavior", "value", "attempts"),
    description="Scripted failure workload (raise/flake/hang/kill) for resilience tests",
)
def run_chaos_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One chaos run: misbehave if this repeat index is scripted to.

    behavior:
        Baseline for unscripted runs: ``ok`` (return a record) or any of
        ``raise`` / ``flaky`` / ``hang`` / ``kill`` to misbehave on *every*
        run.
    raise_at / flaky_at / hang_at / kill_at:
        Repeat indices (int or ``"5,17"``-style list) that override the
        baseline: ``raise`` fails deterministically, ``flaky`` raises
        :class:`~repro.campaign.resilience.TransientError` until attempt
        ``fail_attempts``, ``hang`` sleeps ``hang_s`` (tripping a per-run
        timeout), ``kill`` SIGKILLs its own worker process mid-run.
    cell:
        Inert sweep axis so tests can build multi-point grids.
    """
    repeat = int(params.get("repeat", 0))
    behavior = str(params["behavior"])
    if repeat in _indices(params["kill_at"]):
        behavior = "kill"
    elif repeat in _indices(params["hang_at"]):
        behavior = "hang"
    elif repeat in _indices(params["raise_at"]):
        behavior = "raise"
    elif repeat in _indices(params["flaky_at"]):
        behavior = "flaky"

    if params["work_s"] > 0:
        time.sleep(float(params["work_s"]))

    if behavior == "raise":
        raise RuntimeError(f"chaos: scripted deterministic failure at repeat {repeat}")
    if behavior == "flaky":
        if current_attempt() < int(params["fail_attempts"]):
            raise TransientError(
                f"chaos: transient failure at repeat {repeat}, "
                f"attempt {current_attempt()}"
            )
    elif behavior == "hang":
        time.sleep(float(params["hang_s"]))
    elif behavior == "kill":
        if not in_worker():
            # Killing the only process would take the campaign (and the
            # test harness) down with it; outside a worker this scripted
            # fault degrades to a deterministic failure.
            raise RuntimeError(f"chaos: kill scripted at repeat {repeat} "
                               "outside a worker process")
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    elif behavior != "ok":
        raise ValueError(f"unknown chaos behavior {behavior!r}")

    return {
        "behavior": behavior,
        "value": derive_seed(seed, "chaos:value") % 1_000_000,
        "attempts": current_attempt(),
    }
