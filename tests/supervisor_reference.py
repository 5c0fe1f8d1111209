"""Two-event supervisor step, kept only as a test oracle.

:class:`ReferenceSupervisorHost` is :class:`~repro.middleware.supervisor_host.SupervisorHost`
with the naive step schedule: a periodic tick event every
``step_period_s``, and at each tick a second event ``algorithm_delay_s``
later that calls ``app.step(now)``.  The production host keeps the tick
clock as a float and fires only the step event;
``tests/test_supervisor_step.py`` checks that the two call every step at
the same instants and honour the same cancel semantics.
"""

from __future__ import annotations

from repro.middleware.supervisor_host import SupervisorApp, SupervisorHost


class ReferenceSupervisorHost(SupervisorHost):
    """SupervisorHost spending a tick event and a step event per step."""

    def _schedule_app(self, app: SupervisorApp) -> None:
        if app.step_period_s is None:
            return
        self.every(app.step_period_s, lambda app=app: self._run_step(app))

    def _run_step(self, app: SupervisorApp) -> None:
        self.after(self.algorithm_delay_s, lambda: app.step(self.now))
