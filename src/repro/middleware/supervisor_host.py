"""Supervisor hosting: the ICE "supervisor" component.

A :class:`SupervisorApp` is an application (the closed-loop PCA safety app,
a smart-alarm app, the X-ray coordinator) that subscribes to device topics
and issues device commands.  The :class:`SupervisorHost` is the platform it
runs on: it wires subscriptions through the device bus, enforces the
security policy on outgoing commands (Section III(m) of the paper), and
gives apps a periodic execution slot with a modelled algorithm processing
delay (the "Algorithm Processing time" of Figure 1).  An app that must
fail safe on stale data keeps its own delivery record, from each
delivery's ``message.delivered_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.middleware.bus import DeviceBus
from repro.readings import Reading
from repro.sim.channel import Message
from repro.sim.kernel import PeriodicTask, Process, Simulator
from repro.sim.trace import TraceRecorder


class SupervisorApp:
    """Base class for supervisor applications.

    Subclasses declare the topics they consume via :attr:`subscriptions`,
    then implement :meth:`on_data` and/or :meth:`step`.
    """

    #: Topics this app subscribes to.
    subscriptions: Tuple[str, ...] = ()
    #: Period of the app's control step in seconds (None = event-driven only).
    step_period_s: Optional[float] = 1.0

    def __init__(self, app_id: str) -> None:
        self.app_id = app_id
        self.host: Optional["SupervisorHost"] = None

    # ----------------------------------------------------------------- hooks
    def on_attached(self) -> None:
        """Called when the app is attached to a host."""

    def on_data(self, topic: str, payload: Reading, message: Message) -> None:
        """Called for every delivery on a subscribed topic."""

    def step(self, now: float) -> None:
        """Periodic control step (after the host's algorithm delay)."""

    # ------------------------------------------------------------- utilities
    def send_command(self, device_id: str, command: str, parameters: Optional[Dict[str, Any]] = None) -> bool:
        if self.host is None:
            raise RuntimeError(f"app {self.app_id!r} is not attached to a host")
        return self.host.send_command(self, device_id, command, parameters)


@dataclass
class CommandRecord:
    time: float
    app_id: str
    device_id: str
    command: str
    authorised: bool
    reason: str = ""


class _StepTask(PeriodicTask):
    """An app's control step as one self-rescheduling kernel event.

    The app ticks every ``period`` seconds and decides ``delay`` seconds
    after each tick (the Figure 1 "Algorithm Processing time").  Only the
    decision is a kernel event: the tick clock ``t_k`` is a float advanced
    with the same addition a :class:`PeriodicTask` reschedule performs
    (``t_1 = now + period``, ``t_{k+1} = t_k + period``), and step ``k``
    fires at ``t_k + delay``, so every step time is the one a separate tick
    event followed by a delayed step event would give.

    Cancel semantics: a tick counts as fired once its instant has passed.
    :meth:`cancel` at time ``c`` keeps every step whose tick ``t_k < c``
    (with a long delay there may be several) and drops every step whose
    tick ``t_k >= c``, including one that would tick at ``c`` itself.
    """

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        delay: float,
        step: Callable[[float], None],
        *,
        name: str,
    ) -> None:
        # The base class checks the period.  Its zero-argument callback slot
        # is unused: the step is called with its decision instant.
        super().__init__(simulator, period, lambda: None, name=name)
        self.delay = delay
        self._step = step
        self._tick_time = simulator.now + period
        self._cancel_time = math.inf
        self._event = simulator.schedule_at(self._tick_time + delay, self._tick, name=name)

    # repro-lint: hot
    def _tick(self) -> None:
        simulator = self._simulator
        next_tick = self._tick_time + self.period
        self._tick_time = next_tick
        if next_tick < self._cancel_time:
            self._event = simulator.schedule_at(next_tick + self.delay, self._tick, name=self.name)
        else:
            self._event = None
        self._step(simulator.now)

    def cancel(self) -> None:
        now = self._simulator.now
        self._cancelled = True
        self._cancel_time = min(self._cancel_time, now)
        event = self._event
        if event is not None and self._tick_time >= now:
            event.cancel()
            self._event = None


class SupervisorHost(Process):
    """Hosts supervisor apps on top of the device bus."""

    def __init__(
        self,
        bus: DeviceBus,
        *,
        host_id: str = "supervisor_host",
        algorithm_delay_s: float = 0.1,
        command_authoriser: Optional[Callable[[str, str, str], Tuple[bool, str]]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(name=host_id)
        if not (math.isfinite(algorithm_delay_s) and algorithm_delay_s >= 0):
            raise ValueError(f"algorithm_delay_s must be finite and non-negative, got {algorithm_delay_s!r}")
        self.bus = bus
        self.host_id = host_id
        self.algorithm_delay_s = algorithm_delay_s
        self.trace = trace
        self._apps: Dict[str, SupervisorApp] = {}
        self._command_authoriser = command_authoriser
        self.command_log: List[CommandRecord] = []

    # ------------------------------------------------------------------ apps
    def attach_app(self, app: SupervisorApp) -> None:
        if app.app_id in self._apps:
            raise ValueError(f"app {app.app_id!r} already attached")
        self._apps[app.app_id] = app
        app.host = self
        endpoint_id = f"{self.host_id}:{app.app_id}"
        self.bus.attach_endpoint(endpoint_id)
        for topic in app.subscriptions:
            self.bus.subscribe(endpoint_id, topic, app.on_data)
        app.on_attached()
        if self._simulator is not None:
            self._schedule_app(app)

    @property
    def apps(self) -> List[SupervisorApp]:
        return list(self._apps.values())

    # --------------------------------------------------------------- process
    def start(self) -> None:
        for app in self._apps.values():
            self._schedule_app(app)

    def _schedule_app(self, app: SupervisorApp) -> None:
        if app.step_period_s is None:
            return
        task = _StepTask(self.simulator, app.step_period_s, self.algorithm_delay_s,
                         app.step, name=f"{self.name}:step")
        self._tasks.append(task)

    # -------------------------------------------------------------- commands
    def send_command(
        self,
        app: SupervisorApp,
        device_id: str,
        command: str,
        parameters: Optional[Dict[str, Any]] = None,
    ) -> bool:
        authorised, reason = True, "no policy"
        if self._command_authoriser is not None:
            authorised, reason = self._command_authoriser(app.app_id, device_id, command)
        record = CommandRecord(
            time=self.now,
            app_id=app.app_id,
            device_id=device_id,
            command=command,
            authorised=authorised,
            reason=reason,
        )
        self.command_log.append(record)
        if self.trace is not None:
            self.trace.event(self.now, f"supervisor:command:{command}",
                             {"device": device_id, "authorised": authorised}, source=app.app_id)
        if not authorised:
            return False
        return self.bus.send_command(f"{self.host_id}:{app.app_id}", device_id, command, parameters)

    # ------------------------------------------------------------- accounting
    def denied_commands(self) -> List[CommandRecord]:
        return [record for record in self.command_log if not record.authorised]
