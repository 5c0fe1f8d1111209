"""Kernel hot-path gate: raw event dispatch, calibrated to the host.

A synthetic micro-benchmark that exercises exactly the kernel's hot loop:
self-rescheduling callback chains (one ``heappush`` + one ``heappop`` per
event) with a sprinkling of cancelled decoy events, so the cancelled-head
discard path is measured too.  Two checks, each over sixteen
rounds:

1. **Calibrated dispatch rate.**  events/s times the seconds of perfbench's
   calibration loop (``perfbench/workloads.py:calibrate``), timed just
   before and after: the events the kernel dispatches while that fixed
   pure-Python loop runs once.  Both timings come from the same host at
   the same moment, so the ratio follows the host's speed far less than
   raw events/s does.  It must stay at or above :data:`MIN_EVENTS_PER_CALIB`.
2. **Observability overhead.**  With ``repro.obs`` enabled, events/s must
   stay within :data:`OBS_OVERHEAD_BUDGET` of the disabled rate timed in
   the same round, as the median over the rounds of each round's slowdown.

Run from the root of a checkout; it exits 1 if a check fails::

    python benchmarks/bench_kernel_hotpath.py
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import calibrate  # noqa: E402

from repro.obs import metrics as obs  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

#: Concurrent self-rescheduling chains (sets the steady-state heap depth).
CHAINS = 64
#: Every DECOY_EVERY-th chain hop also schedules-then-cancels a decoy event.
DECOY_EVERY = 8
#: Events dispatched per attempt.
EVENTS = 100_000
ROUNDS = 16
#: Floor of the calibrated dispatch rate (events per calibration loop).
#: Measured on a shared 2-CPU x86-64 Linux container under CPython 3.11,
#: at the kernel this gate was introduced with: 10 back-to-back runs read
#: 12,200-13,021, median 12,506 (raw events/s spread 380k-800k on the same
#: box).  The floor is 0.7 x that median, the 30% tolerance of the
#: absolute events/s gate it replaced.  With ``Simulator.run`` made twice
#: as slow per event, three runs read 6,937-7,005 and fail.
MIN_EVENTS_PER_CALIB = 8_750
#: Largest tolerated slowdown of dispatch with ``repro.obs`` enabled.
OBS_OVERHEAD_BUDGET = 0.10


def run_synthetic(n_events: int) -> float:
    """Dispatch ``n_events`` through the hot loop; returns events/s."""
    sim = Simulator()

    def make_chain(delay: float):
        counter = [0]

        def hop() -> None:
            counter[0] += 1
            if counter[0] % DECOY_EVERY == 0:
                sim.schedule(delay * 2.0, hop).cancel()
            sim.schedule(delay, hop)

        return hop

    for i in range(CHAINS):
        delay = 0.25 + 0.01 * i
        sim.schedule(delay, make_chain(delay))

    started = perf_counter()
    sim.run(max_events=n_events)
    elapsed = perf_counter() - started
    assert sim.event_count == n_events
    return n_events / elapsed


def measure() -> tuple:
    """Median calibrated rate, and the median of each round's obs slowdown.

    A round times the disabled loop between two calibrations (their mean
    scales it) and the enabled loop next to it, first or last in turn, so
    both sides see the same spread of host speeds.  Each round's slowdown
    compares two loops timed seconds apart, and the median ignores the
    rounds in which the host changed speed between them.  (The slowdown of
    the best enabled rate against the best disabled one, two loops from
    different rounds, read -5.5% to 23.7% over ten runs on a shared 2-CPU
    box where this statistic read -4.6% to 6.9%; with the enabled loop
    made 20% slower, this one read 18.2% to 32.5% and failed all ten.)
    The switch is forced either way and restored after, so the disabled
    rate means the same under ``REPRO_OBS=1``.
    """
    was_enabled = obs.enabled()
    calibrated, rates, observed_rates = [], [], []

    def timed(observed: bool) -> float:
        (obs.enable if observed else obs.disable)()
        return run_synthetic(EVENTS)

    try:
        for index in range(ROUNDS):
            if index % 2:
                observed_rates.append(timed(True))
            before = calibrate()
            rates.append(timed(False))
            calibrated.append(rates[-1] * (before + calibrate()) / 2.0)
            if not index % 2:
                observed_rates.append(timed(True))
    finally:
        (obs.enable if was_enabled else obs.disable)()
        obs.registry().reset()
    slowdowns = [1.0 - observed / rate for observed, rate in zip(observed_rates, rates)]
    return statistics.median(calibrated), statistics.median(slowdowns)


def main() -> int:
    per_calib, overhead = measure()
    checks = [
        (f"calibrated dispatch: {per_calib:,.0f} events per calibration loop, "
         f"floor {MIN_EVENTS_PER_CALIB:,}", per_calib >= MIN_EVENTS_PER_CALIB),
        (f"obs overhead: {overhead:.1%}, budget {OBS_OVERHEAD_BUDGET:.0%}",
         overhead <= OBS_OVERHEAD_BUDGET),
    ]
    for text, ok in checks:
        print(f"[kernel-gate] {text} -> {'ok' if ok else 'FAILED'}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
