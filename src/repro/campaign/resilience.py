"""Fault-tolerant campaign execution: error capture, retries, and watchdog.

The paper's core requirement (Section II(c)) is a supervisor "tolerant to
faults that interfere with the control loop"; at population scale the same
discipline must apply to the campaign engine itself — one bad run out of a
million must not kill the job.  This module provides the three layers the
engine composes:

* **Structured error capture** (:func:`execute_with_capture`): a failing
  run yields an *error record* — exception class, message, traceback
  digest, attempt count, wall time, transient/deterministic classification
  — instead of an exception that poisons the worker pool.  Error records
  are quarantined to ``errors.jsonl`` by the store and re-dispatched on
  resume.
* **Bounded retry** (:class:`RetryPolicy`): transient failures (the
  exception types named in :data:`_TRANSIENT_TYPES`) retry in-worker at
  once, up to ``max_attempts`` tries; deterministic failures quarantine
  immediately.
* **Worker-death and timeout tolerance** (:class:`ResilientDispatcher`):
  a parent-side watchdog dispatches runs with ``apply_async``, wakes as
  each one completes, reads per-run heartbeat files written by the
  workers, SIGKILLs wedged workers whose run exceeds its wall-clock budget
  (``multiprocessing.Pool`` respawns the process), re-dispatches runs
  whose worker died under them, and degrades gracefully to in-parent
  serial execution when the pool cannot be kept alive.

Every campaign runs through these layers.  What a failure *does* is
configuration: the default :data:`FAIL_FAST` (no retry, no isolation)
aborts the campaign on the first failing run or lost worker, while an
isolating :class:`ResilienceConfig` quarantines it and carries on.
"""

from __future__ import annotations

import gc
import hashlib
import os
import queue
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.registry import CampaignError
from repro.campaign.spec import RunManifest

#: Outcome tuples the engine consumes: ("ok", record, attempts) or
#: ("error", error_record).  Error records carry their attempt count inside.
Outcome = Tuple[str, Dict[str, Any], int]

OK = "ok"
ERROR = "error"

#: Error classifications recorded in ``errors.jsonl``.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"
TIMEOUT = "timeout"
WORKER_LOST = "worker_lost"

#: Longest the dispatcher waits for a completion before it re-runs the
#: watchdog checks (timeouts, dead workers).
_POLL_S = 0.02

#: Extra wall-clock allowance between dispatch and the worker's heartbeat
#: appearing, on top of ``run_timeout_s``: a dispatched run may wait in the
#: pool behind a run that uses its whole budget.
_PICKUP_GRACE_S = 5.0

#: Exception type *names* classified as transient, matched against the
#: exception class, its bases, and its ``__cause__`` chain (so a runner
#: error wrapped in :class:`CampaignError` keeps its classification).
_TRANSIENT_TYPES = frozenset((
    "TransientError", "ConnectionError", "BrokenPipeError", "EOFError",
    "TimeoutError",
))

#: Dispatches per run when its *worker* dies under it (distinct from
#: in-worker retries: the run itself never raised).
_MAX_DISPATCH_ATTEMPTS = 2

#: Killed or lost workers after which the dispatcher stops trusting the pool
#: and runs the survivors serially in the parent (timeouts can then no
#: longer be enforced, but the campaign completes).
_MAX_WORKER_RESTARTS = 3


class TransientError(RuntimeError):
    """Marker for failures worth retrying (I/O hiccups, resource races).

    Scenario runners raise this (or any type named in
    :data:`_TRANSIENT_TYPES`) to request an in-worker retry instead of
    immediate quarantine.
    """


# ----------------------------------------------------------------- attempts
#: 1-based attempt number of the run currently executing in this process.
_CURRENT_ATTEMPT = 1

#: True inside a campaign pool worker (set by the worker initializer).
_IN_WORKER = False


def current_attempt() -> int:
    """The 1-based attempt number of the run executing right now.

    Scenario runners may consult this to make transient failures converge
    (the chaos scenario's ``flaky`` behaviour succeeds once
    ``current_attempt() >= fail_attempts``).
    """
    return _CURRENT_ATTEMPT


def in_worker() -> bool:
    """Whether this process is a campaign pool worker."""
    return _IN_WORKER


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


# -------------------------------------------------------------- retry policy
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, immediate retry for transient failures.

    max_attempts:
        Total tries per run (1 = never retry).
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CampaignError("retry max_attempts must be >= 1")

    def classify(self, error: BaseException) -> str:
        """``"transient"`` or ``"deterministic"`` for ``error``."""
        seen = set()
        current: Optional[BaseException] = error
        while current is not None and id(current) not in seen:
            seen.add(id(current))
            for klass in type(current).__mro__:
                if klass.__name__ in _TRANSIENT_TYPES:
                    return TRANSIENT
            current = current.__cause__ or current.__context__
        return DETERMINISTIC


@dataclass(frozen=True)
class ResilienceConfig:
    """What the engine does about failing runs and workers.

    retry:
        In-worker retry policy for transient errors.
    run_timeout_s:
        Per-run wall-clock budget.  Only enforceable with ``workers > 1``
        (the parent cannot preempt its own thread); a run that exceeds it
        fails as ``timeout`` and its worker is killed and respawned.
    isolate:
        True quarantines a failed run to ``errors.jsonl`` and carries on;
        False aborts the campaign with a :class:`CampaignError` carrying
        the failure's message (see :data:`FAIL_FAST`).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    run_timeout_s: Optional[float] = None
    isolate: bool = True

    def __post_init__(self) -> None:
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise CampaignError("run_timeout_s must be positive")


#: The engine's default: no retry, no isolation -- the first failing run
#: (or lost worker) aborts the campaign.
FAIL_FAST = ResilienceConfig(retry=RetryPolicy(max_attempts=1), isolate=False)


# ------------------------------------------------------------ error records
def _traceback_digest(error: BaseException) -> Tuple[str, str]:
    """(sha256 digest, last frame summary) of the error's traceback."""
    text = "".join(traceback.format_exception(
        type(error), error, error.__traceback__))
    digest = hashlib.sha256(text.encode()).hexdigest()
    frames = traceback.extract_tb(error.__traceback__)
    where = ""
    if frames:
        last = frames[-1]
        where = f"{Path(last.filename).name}:{last.lineno} in {last.name}"
    return digest, where


def error_record(
    manifest: RunManifest,
    *,
    classification: str,
    attempts: int,
    wall_s: float,
    error: Optional[BaseException] = None,
    message: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the quarantine record for one failed run.

    Mirrors the result-record envelope (run identity + params) so
    ``errors.jsonl`` is self-describing, and nests the failure detail under
    ``"error"``.  Synthetic failures (timeouts, lost workers) pass
    ``message`` instead of an exception.
    """
    if error is not None:
        digest, where = _traceback_digest(error)
        detail = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback_digest": digest,
            "where": where,
        }
    else:
        detail = {"type": classification, "message": message or "", }
    detail["classification"] = classification
    detail["attempts"] = attempts
    detail["wall_s"] = round(wall_s, 6)
    return {
        "run_index": manifest.run_index,
        "run_id": manifest.run_id,
        "scenario": manifest.scenario,
        "seed": manifest.seed,
        "params": dict(manifest.params),
        "error": detail,
    }


def execute_with_capture(
    manifest: RunManifest,
    policy: RetryPolicy,
    *,
    execute: Optional[Callable[[RunManifest], Dict[str, Any]]] = None,
    on_retry: Optional[Callable[[], None]] = None,
) -> Outcome:
    """Run one manifest, retrying transients at once; never raises for run failures.

    Returns ``("ok", record, attempts)`` or ``("error", error_record,
    attempts)``.  ``KeyboardInterrupt`` / ``SystemExit`` still propagate —
    they are operator intent, not run failures.
    """
    global _CURRENT_ATTEMPT
    if execute is None:
        from repro.campaign.engine import execute_manifest
        execute = execute_manifest
    attempts = 0
    wall_start = time.perf_counter()
    while True:
        attempts += 1
        _CURRENT_ATTEMPT = attempts
        try:
            record = execute(manifest)
            _CURRENT_ATTEMPT = 1
            return (OK, record, attempts)
        except (KeyboardInterrupt, SystemExit):
            _CURRENT_ATTEMPT = 1
            raise
        except BaseException as error:  # noqa: BLE001 - capture is the point
            classification = policy.classify(error)
            if classification == TRANSIENT and attempts < policy.max_attempts:
                if on_retry is not None:
                    on_retry()
                continue
            _CURRENT_ATTEMPT = 1
            return (ERROR,
                    error_record(manifest, classification=classification,
                                 attempts=attempts,
                                 wall_s=time.perf_counter() - wall_start,
                                 error=error),
                    attempts)


def _reclaim_run() -> None:
    """Free the reference cycles the run that just finished left behind.

    A finished run's simulator, processes, trace writers and bus closures
    reference each other, so refcounting cannot free them; left to the
    collector's own schedule, dead runs pile up until its next full pass.
    Collecting at every run boundary keeps one run alive at a time.  The
    objects alive when execution began are frozen, so this walks only what
    was created since.  No module defines ``__del__`` or a weakref callback
    (``tests/test_campaign_memory.py`` guards this), so when the collector
    runs cannot change a result.
    """
    gc.collect()


def execute_serially(
    manifests: Sequence[RunManifest],
    policy: RetryPolicy,
    *,
    on_retry: Optional[Callable[[], None]] = None,
) -> Iterator[Outcome]:
    """Run ``manifests`` one after another in this process, one outcome each.

    The one serial run loop: the engine's serial path and the dispatcher's
    fall-back after too many lost workers both use it.  What is alive when
    it starts is frozen out of the collector's reach (freezing is O(1); a
    collection here would walk the caller's whole heap), and each finished
    run is reclaimed before the next starts.  A caller that froze its own
    objects keeps them so.
    """
    froze = gc.get_freeze_count() == 0
    if froze:
        gc.freeze()
    try:
        for manifest in manifests:
            outcome = execute_with_capture(manifest, policy, on_retry=on_retry)
            _reclaim_run()
            yield outcome
    finally:
        if froze:
            gc.unfreeze()


# ----------------------------------------------------------------- watchdog
class Heartbeat:
    """Per-run heartbeat files linking a dispatched run to its worker pid.

    A worker touches ``run-<index>.hb`` (containing ``pid started_at``)
    when it picks the run up and removes it on completion; the parent
    watchdog reads it to (a) start the run's wall-clock budget at actual
    pickup rather than dispatch, (b) tell a *dead* worker (re-dispatch the
    run) from a *wedged* one (kill it and quarantine the run).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = Path(
            directory if directory is not None
            else tempfile.mkdtemp(prefix="repro-campaign-hb-"))
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, run_index: int) -> Path:
        return self.directory / f"run-{run_index:08d}.hb"

    # Worker side -------------------------------------------------------
    def start(self, run_index: int) -> None:
        try:
            self.path(run_index).write_text(
                f"{os.getpid()} {time.time()}", encoding="utf-8")
        except OSError:  # pragma: no cover - scratch dir vanished
            pass

    def finish(self, run_index: int) -> None:
        try:
            self.path(run_index).unlink()
        except OSError:
            pass

    # Parent side -------------------------------------------------------
    def read(self, run_index: int) -> Optional[Tuple[int, float]]:
        """(pid, started_at) if the worker has picked the run up."""
        try:
            parts = self.path(run_index).read_text(encoding="utf-8").split()
            return int(parts[0]), float(parts[1])
        except (OSError, ValueError, IndexError):
            return None

    def cleanup(self) -> None:
        try:
            for stale in self.directory.glob("run-*.hb"):
                stale.unlink()
            self.directory.rmdir()
        except OSError:  # pragma: no cover - foreign files left behind
            pass


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (POSIX signal 0)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - EPERM etc: assume alive
        return True
    return True


def kill_worker(pid: int) -> bool:
    """SIGKILL a wedged pool worker; the pool respawns a replacement."""
    try:
        os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
    except OSError:
        return False
    return True


@dataclass
class _InFlight:
    manifest: RunManifest
    payload_index: int
    result: Any  # multiprocessing AsyncResult
    dispatched_at: float
    dispatch_attempts: int


class ResilientDispatcher:
    """Parent-side watchdog loop over an ``apply_async`` worker pool.

    The engine hands it a live pool plus the pending manifests; it yields
    :data:`Outcome` tuples as runs finish, survives worker death (re-
    dispatch, bounded), enforces per-run timeouts (targeted SIGKILL of the
    wedged worker — the pool respawns it), and falls back to in-parent
    serial execution once ``_MAX_WORKER_RESTARTS`` is exhausted.  The
    ``stats`` dict exposes ``worker_restarts`` / ``timed_out`` /
    ``redispatched`` for the campaign report.

    Each worker has one run executing and one queued in the pool, so a
    freed worker starts its next run without waiting for the parent.  Each
    dispatch's completion callback puts ``(payload index, dispatch
    attempt)`` on a queue; the loop blocks on it, refills the pool as soon
    as a run completes, and runs the watchdog checks on every wake (at
    least every ``_POLL_S``).
    """

    def __init__(
        self,
        pool: Any,
        manifests: List[RunManifest],
        config: ResilienceConfig,
        heartbeat: Heartbeat,
        worker: Callable[[int], Outcome],
        processes: int,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> None:
        self.pool = pool
        self.manifests = manifests
        self.config = config
        self.heartbeat = heartbeat
        self.worker = worker
        self.processes = processes
        self.on_retry = on_retry
        self.stats = {"worker_restarts": 0, "timed_out": 0, "redispatched": 0}
        self._queue: List[Tuple[int, int]] = [
            (i, 1) for i in range(len(manifests))]
        self._inflight: Dict[int, _InFlight] = {}
        self._completed: "queue.SimpleQueue[Tuple[int, int]]" = queue.SimpleQueue()
        self._degraded = False

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, payload_index: int, attempt: int) -> None:
        def wake(_outcome: Any) -> None:
            self._completed.put((payload_index, attempt))

        self._inflight[payload_index] = _InFlight(
            manifest=self.manifests[payload_index],
            payload_index=payload_index,
            result=self.pool.apply_async(self.worker, (payload_index,),
                                         callback=wake, error_callback=wake),
            dispatched_at=time.monotonic(),
            dispatch_attempts=attempt,
        )

    def _fill_slots(self) -> None:
        while self._queue and len(self._inflight) < 2 * self.processes:
            index, attempt = self._queue.pop(0)
            self._dispatch(index, attempt)

    # -------------------------------------------------------------- timeout
    def _deadline_passed(self, flight: _InFlight, now: float) -> bool:
        timeout = self.config.run_timeout_s
        if timeout is None:
            return False
        beat = self.heartbeat.read(flight.payload_index)
        if beat is None:
            # Not picked up yet: it may be queued behind a run that uses the
            # whole budget, so the grace only has to cover the pickup.
            return now - flight.dispatched_at > timeout + _PICKUP_GRACE_S
        _pid, started_at = beat
        return time.time() - started_at > timeout

    def _handle_expiry(self, flight: _InFlight) -> Optional[Outcome]:
        """Timeout or worker death for one in-flight run.

        Returns an error outcome to emit, or ``None`` if the run was
        re-queued (dead worker, budget left).
        """
        beat = self.heartbeat.read(flight.payload_index)
        pid = beat[0] if beat is not None else None
        if pid is not None and pid_alive(pid):
            # Wedged or genuinely too slow: reclaim the slot.
            kill_worker(pid)
            self.stats["worker_restarts"] += 1
            self.stats["timed_out"] += 1
            self.heartbeat.finish(flight.payload_index)
            return (ERROR,
                    error_record(flight.manifest, classification=TIMEOUT,
                                 attempts=flight.dispatch_attempts,
                                 wall_s=self.config.run_timeout_s or 0.0,
                                 message=(
                                     f"run exceeded its wall-clock budget of "
                                     f"{self.config.run_timeout_s}s")),
                    flight.dispatch_attempts)
        # Worker died under the run (or never picked it up): the run itself
        # is innocent — re-dispatch unless its budget is spent.
        self.stats["worker_restarts"] += 1
        self.heartbeat.finish(flight.payload_index)
        if flight.dispatch_attempts < _MAX_DISPATCH_ATTEMPTS:
            self.stats["redispatched"] += 1
            self._queue.append(
                (flight.payload_index, flight.dispatch_attempts + 1))
            return None
        return (ERROR,
                error_record(flight.manifest, classification=WORKER_LOST,
                             attempts=flight.dispatch_attempts,
                             wall_s=time.monotonic() - flight.dispatched_at,
                             message=(
                                 "worker process died "
                                 f"{flight.dispatch_attempts} time(s) while "
                                 "executing this run")),
                flight.dispatch_attempts)

    def _check_worker_death(self, flight: _InFlight) -> bool:
        """True when the worker that picked this run up is gone."""
        beat = self.heartbeat.read(flight.payload_index)
        if beat is None:
            return False
        pid, _started = beat
        return not pid_alive(pid)

    # ------------------------------------------------------------------ run
    def outcomes(self):
        """Yield one outcome per pending run, in completion order."""
        while self._queue or self._inflight:
            if self._degraded:
                yield from self._drain_serial()
                return
            self._fill_slots()
            yield from self._wait_once()
            if self.stats["worker_restarts"] > _MAX_WORKER_RESTARTS:
                self._degrade()

    def _wait_once(self):
        """Yield the next completed run (if one arrives within ``_POLL_S``),
        then any outcome the watchdog checks produce."""
        try:
            index, attempt = self._completed.get(timeout=_POLL_S)
        except queue.Empty:
            pass
        else:
            flight = self._inflight.get(index)
            # A stale wake (an expired dispatch finishing late) is dropped.
            if flight is not None and flight.dispatch_attempts == attempt:
                del self._inflight[index]
                self._fill_slots()
                # The callback fires just before the result is marked
                # ready; get() waits out that instant.
                yield flight.result.get()
        now = time.monotonic()
        for index, flight in list(self._inflight.items()):
            if self._deadline_passed(flight, now) \
                    or self._check_worker_death(flight):
                del self._inflight[index]
                outcome = self._handle_expiry(flight)
                if outcome is not None:
                    yield outcome

    def _degrade(self) -> None:
        """Give up on the pool; survivors run serially in the parent."""
        self._degraded = True
        for flight in self._inflight.values():
            self._queue.append(
                (flight.payload_index, flight.dispatch_attempts))
        self._inflight.clear()
        self.pool.terminate()

    def _drain_serial(self):
        manifests = [self.manifests[index] for index, _attempt in self._queue]
        self._queue.clear()
        yield from execute_serially(manifests, self.config.retry,
                                    on_retry=self.on_retry)
