"""The supervisor's one-event control step, and block-drawn sensor noise.

``SupervisorHost`` fires one kernel event per app step: the tick clock is a
float, and step ``k`` fires at ``t_k + algorithm_delay_s``.
``supervisor_reference.ReferenceSupervisorHost`` keeps the old schedule (a
tick event, then a delayed step event); the two must call every step at the
same instants, bit for bit, and drop the same steps on cancel.

``GaussianNoise`` draws standard normals in blocks; every value must have
the bits of the scalar ``rng.normal(0.0, sd)`` it replaces.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervisor_reference import ReferenceSupervisorHost

from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.core.pca import PCASafetySupervisor
from repro.middleware.bus import BusConfig, DeviceBus
from repro.middleware.supervisor_host import SupervisorApp, SupervisorHost
from repro.obs.profiler import owner_of
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.random import NOISE_BLOCK, GaussianNoise


def _bits(value):
    return struct.pack("<d", float(value))


class _StepRecorder(SupervisorApp):
    def __init__(self, app_id, period, cancel_on_step=None, log=None):
        super().__init__(app_id)
        self.step_period_s = period
        self.cancel_on_step = cancel_on_step
        self.times = []
        self.log = log

    def step(self, now):
        self.times.append(now)
        if self.log is not None:
            self.log.append(("step", now))
        if len(self.times) == self.cancel_on_step:
            self.host.cancel_all()


def _run(host_class, periods, delay, duration, *, cancel_at=None, cancel_on_step=None, late_attach_at=None):
    """Step times per app; the last app attaches at ``late_attach_at`` if set."""
    simulator = Simulator()
    host = host_class(DeviceBus(simulator, BusConfig()), algorithm_delay_s=delay)
    apps = [_StepRecorder(f"app{i}", period, cancel_on_step) for i, period in enumerate(periods)]
    if cancel_at is not None:
        # Queued before the host registers, so it runs ahead of any tick
        # at the same instant in the reference host.
        simulator.schedule_at(cancel_at, host.cancel_all)
    early = apps if late_attach_at is None else apps[:-1]
    for app in early:
        host.attach_app(app)
    simulator.register(host)
    if late_attach_at is not None:
        simulator.schedule_at(late_attach_at, lambda: host.attach_app(apps[-1]))
    simulator.run(until=duration)
    return [[_bits(t) for t in app.times] for app in apps], simulator


def _tick_instants(period, count):
    """``t_1..t_count`` by the repeated float addition both hosts perform."""
    instants, tick = [], 0.0
    for _ in range(count):
        tick = tick + period
        instants.append(tick)
    return instants


periods = st.one_of(st.sampled_from([0.1, 0.25, 1.0 / 3.0, 0.7, 1.0, 2.0, 2.5]),
                    st.floats(min_value=0.05, max_value=4.0, allow_nan=False))
delays = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 2.5, 5.0]),
                   st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
durations = st.floats(min_value=0.5, max_value=25.0, allow_nan=False)


class TestStepHostAgainstReference:
    @given(app_periods=st.lists(periods, min_size=1, max_size=3), delay=delays, duration=durations,
           late=st.booleans(), late_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_step_times_bit_identical(self, app_periods, delay, duration, late, late_fraction):
        late_attach_at = duration * late_fraction if late and len(app_periods) > 1 else None
        expected, _ = _run(ReferenceSupervisorHost, app_periods, delay, duration, late_attach_at=late_attach_at)
        actual, _ = _run(SupervisorHost, app_periods, delay, duration, late_attach_at=late_attach_at)
        assert actual == expected

    @given(app_periods=st.lists(periods, min_size=1, max_size=3), delay=delays, duration=durations,
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cancel_all_drops_the_same_steps(self, app_periods, delay, duration, data):
        # Cancel anywhere, exactly at a tick instant, or exactly at a step.
        ticks = _tick_instants(app_periods[0], 8)
        cancel_at = data.draw(st.one_of(
            st.floats(min_value=0.0, max_value=duration),
            st.sampled_from(ticks),
            st.sampled_from([tick + delay for tick in ticks]),
        ))
        expected, _ = _run(ReferenceSupervisorHost, app_periods, delay, duration, cancel_at=cancel_at)
        actual, _ = _run(SupervisorHost, app_periods, delay, duration, cancel_at=cancel_at)
        assert actual == expected

    @given(period=periods, delay=delays, duration=durations, cancel_on_step=st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_cancel_from_inside_a_step(self, period, delay, duration, cancel_on_step):
        expected, _ = _run(ReferenceSupervisorHost, [period], delay, duration, cancel_on_step=cancel_on_step)
        actual, _ = _run(SupervisorHost, [period], delay, duration, cancel_on_step=cancel_on_step)
        assert actual == expected


class TestStepHostSemantics:
    def _times(self, delay, cancel_at, duration=10.0):
        steps, _ = _run(SupervisorHost, [1.0], delay, duration, cancel_at=cancel_at)
        return [struct.unpack("<d", bits)[0] for bits in steps[0]]

    def test_cancel_at_the_tick_instant_drops_that_step(self):
        assert self._times(0.5, cancel_at=3.0) == [1.5, 2.5]

    def test_cancel_between_tick_and_step_keeps_the_step(self):
        assert self._times(0.5, cancel_at=3.2) == [1.5, 2.5, 3.5]

    def test_long_delay_keeps_every_step_whose_tick_has_passed(self):
        assert self._times(2.5, cancel_at=3.2) == [3.5, 4.5, 5.5]

    def test_zero_delay_steps_at_the_tick_instant(self):
        assert self._times(0.0, cancel_at=3.0) == [1.0, 2.0]

    def test_one_kernel_event_per_step(self):
        steps, simulator = _run(SupervisorHost, [1.0], 0.5, 10.0)
        assert len(steps[0]) == 9
        assert simulator.event_count == 9

    def test_step_runs_ahead_of_events_queued_before_its_tick(self):
        # Step 1 fires at 1.5; an event queued at 1.7 for the instant of
        # step 2 (2.5) now runs after it.  The reference queued step 2 only
        # at its tick (2.0), so that event ran first there.
        def order(host_class):
            simulator = Simulator()
            host = host_class(DeviceBus(simulator, BusConfig()), algorithm_delay_s=0.5)
            log = []
            app = _StepRecorder("app", 1.0, log=log)
            host.attach_app(app)
            simulator.register(host)
            simulator.schedule_at(1.7, lambda: simulator.schedule_at(2.5, lambda: log.append(("other", 2.5))))
            simulator.run(until=2.6)
            return log

        assert order(SupervisorHost) == [("step", 1.5), ("step", 2.5), ("other", 2.5)]
        assert order(ReferenceSupervisorHost) == [("step", 1.5), ("other", 2.5), ("step", 2.5)]

    def test_non_positive_period_rejected(self):
        simulator = Simulator()
        host = SupervisorHost(DeviceBus(simulator, BusConfig()))
        simulator.register(host)
        with pytest.raises(SimulationError, match="period must be positive"):
            host.attach_app(_StepRecorder("app", 0.0))

    @pytest.mark.parametrize("period", (math.nan, math.inf))
    def test_non_finite_period_rejected(self, period):
        simulator = Simulator()
        host = SupervisorHost(DeviceBus(simulator, BusConfig()))
        simulator.register(host)
        with pytest.raises(SimulationError, match="period must be positive and finite"):
            host.attach_app(_StepRecorder("app", period))
        assert simulator.pending() == 0


class TestClosedLoopEventCount:
    def test_one_supervisor_event_per_step(self, monkeypatch):
        steps = []
        original = PCASafetySupervisor.step

        def counted(self, now):
            steps.append(now)
            original(self, now)

        monkeypatch.setattr(PCASafetySupervisor, "step", counted)
        system = ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=600.0, seed=7)).build()
        dispatcher = _OwnerCounter()
        system.simulator.attach_profiler(dispatcher)
        system.run()
        # Ticks at 2, 4, ..., 600 s; the step after the last tick (600.1 s)
        # falls past the end of the run.
        assert len(steps) == 299
        assert dispatcher.events[system.host.name] == len(steps)


class _OwnerCounter:
    """Dispatch hook counting kernel events per callback owner."""

    def __init__(self):
        self.events = Counter()

    def dispatch(self, event):
        self.events[owner_of(event.name)] += 1
        event.callback()


class TestGaussianNoiseBits:
    @pytest.mark.parametrize("seed", [0, 7, 424242])
    def test_matches_scalar_normal_across_block_boundaries(self, seed):
        sds = [0.6, 1.5, 0.0, 0.5, 1.0, 2.0, 1e-3, 0.0, 3.25]
        count = 3 * NOISE_BLOCK + 41
        scalar = np.random.default_rng(seed)
        noise = GaussianNoise(np.random.default_rng(seed))
        for i in range(count):
            sd = sds[i % len(sds)]
            assert _bits(noise(sd)) == _bits(float(scalar.normal(0.0, sd))), i

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           sds=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
                        min_size=1, max_size=12),
           count=st.integers(min_value=3 * NOISE_BLOCK + 1, max_value=4 * NOISE_BLOCK))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_normal_for_any_sd_sequence(self, seed, sds, count):
        scalar = np.random.default_rng(seed)
        noise = GaussianNoise(np.random.default_rng(seed))
        for i in range(count):
            sd = sds[i % len(sds)]
            value = noise(sd)
            assert not math.isnan(value)
            assert _bits(value) == _bits(float(scalar.normal(0.0, sd)))
