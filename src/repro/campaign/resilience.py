"""Fault-tolerant campaign execution: error capture, retries, and watchdog.

The paper's core requirement (Section II(c)) is a supervisor "tolerant to
faults that interfere with the control loop"; at population scale the same
discipline must apply to the campaign engine itself — one bad run out of a
million must not kill the job.  This module provides the three layers the
engine composes:

* **Structured error capture** (:func:`execute_with_capture`): a failing
  run yields an *error record* — exception class, message, traceback
  digest, attempt count, wall time, transient/deterministic classification
  — instead of an exception that takes its worker down.  Error records
  are quarantined to ``errors.jsonl`` by the store and re-dispatched on
  resume.
* **Bounded retry** (:class:`RetryPolicy`): transient failures (the
  exception types named in :data:`_TRANSIENT_TYPES`) retry in-worker at
  once, up to ``max_attempts`` tries; deterministic failures quarantine
  immediately.
* **Worker-death and timeout tolerance** (:class:`ResilientDispatcher`):
  the parent owns its worker processes, one pipe each, and knows which
  runs each one holds.  It blocks until a run completes, a worker dies or
  a run's wall-clock budget expires; it kills the worker of an expired
  run, re-dispatches a run whose worker died under it, and degrades to
  in-parent serial execution when workers keep dying.

Every campaign runs through these layers.  What a failure *does* is
configuration: the default :data:`FAIL_FAST` (no retry, no isolation)
aborts the campaign on the first failing run or lost worker, while an
isolating :class:`ResilienceConfig` quarantines it and carries on.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.registry import CampaignError
from repro.campaign.spec import RunManifest
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs.spans import tracer as obs_tracer

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

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

#: Killed or lost workers after which the dispatcher stops trusting workers
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

#: True inside a campaign worker process.
_IN_WORKER = False


def current_attempt() -> int:
    """The 1-based attempt number of the run executing right now.

    Scenario runners may consult this to make transient failures converge
    (the chaos scenario's ``flaky`` behaviour succeeds once
    ``current_attempt() >= fail_attempts``).
    """
    return _CURRENT_ATTEMPT


def in_worker() -> bool:
    """Whether this process is a campaign worker."""
    return _IN_WORKER


def _note_retry() -> None:
    """Count one retry in this process's metrics registry."""
    instruments = obs_metrics.campaign_instruments()
    if instruments is not None:
        instruments.runs_retried.value += 1


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
        fails as ``timeout`` and its worker is killed and replaced.
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


# ------------------------------------------------------------------ workers
def _worker_main(conn: Connection, parent_ends: Sequence[Connection],
                 manifests: Sequence[RunManifest], policy: RetryPolicy,
                 obs_on: bool) -> None:
    """A campaign worker process: run each manifest index the parent sends.

    Each run is answered with ``(outcome, snapshot)``: the snapshot is this
    process's cumulative metrics when observability is on, else None.  A
    ``None`` from the parent ends the loop, and so does the parent's death.
    ``parent_ends`` are the parent's ends of every worker pipe, which a
    forked worker inherits: closing them leaves the parent their only
    holder, so its death reads as end-of-file here.  ``obs_on`` carries the
    parent's observability switch across the process boundary (a
    programmatic ``enable()`` in the parent is not visible to a spawned
    worker).
    """
    global _IN_WORKER
    _IN_WORKER = True
    for end in parent_ends:
        end.close()
    if obs_on:
        obs_metrics.enable()
        # A forked worker starts with a copy of the parent's metrics; its
        # snapshot must count only its own runs.
        obs_metrics.registry().reset()
        obs_tracer().reset()
    # Everything alive now (imports, the manifests) outlives every run:
    # keep it out of the per-run collections.
    gc.freeze()
    try:
        for index in iter(conn.recv, None):
            outcome = execute_with_capture(manifests[index], policy, on_retry=_note_retry)
            _reclaim_run()
            conn.send((outcome, obs_export.snapshot_lines() if obs_on else None))
    except (EOFError, ConnectionError):
        pass  # the parent is gone


@dataclass
class _Worker:
    """One worker process, its end of the pipe, and the runs it holds.

    ``held`` lists ``(manifest index, dispatch attempt)`` pairs in the order
    the worker runs them: the first is running, since ``started_at``
    (monotonic seconds), and the one after it is queued in the pipe.
    """

    process: BaseProcess
    conn: Connection
    held: List[Tuple[int, int]] = field(default_factory=list)
    started_at: float = 0.0


class ResilientDispatcher:
    """Runs manifests on worker processes it owns; yields their outcomes.

    Each worker is a ``multiprocessing.Process`` from the platform's default
    context (fork on Linux, so a scenario registered in this process reaches
    it) with its own duplex pipe, and holds at most two runs: one running
    and one queued, so a worker starts its next run without waiting for
    the parent.  The parent blocks on the pipes and the process sentinels,
    with the earliest run deadline as its timeout, so a completion, a death
    and an expiry each wake it directly.

    Because the parent knows which runs each worker holds:

    * a worker that dies loses its running run, which is re-dispatched once
      and then quarantined as ``worker_lost``; its queued run is
      re-dispatched uncharged;
    * a run that outlives ``run_timeout_s`` (counted from pickup) is
      quarantined as ``timeout``: its worker is killed and replaced, and
      the queued run is re-dispatched uncharged;
    * after more than ``_MAX_WORKER_RESTARTS`` lost or killed workers, the
      remaining runs execute serially in this process.

    Every worker started is reaped before :meth:`outcomes` returns or
    raises.  ``snapshots`` holds each worker's last metrics snapshot by pid.
    """

    def __init__(self, manifests: Sequence[RunManifest], config: ResilienceConfig,
                 processes: int) -> None:
        self.manifests = manifests
        self.config = config
        self.processes = processes
        self.worker_restarts = 0
        self.snapshots: Dict[int, List[Dict[str, Any]]] = {}
        self._queue: Deque[Tuple[int, int]] = deque(
            (index, 1) for index in range(len(manifests)))
        self._workers: List[_Worker] = []

    def outcomes(self) -> Iterator[Outcome]:
        """Yield one outcome per manifest, in completion order."""
        try:
            while self._queue or any(worker.held for worker in self._workers):
                if self.worker_restarts > _MAX_WORKER_RESTARTS:
                    yield from self._degrade()
                    return
                self._fill()
                yield from self._wait()
        finally:
            self._stop()

    # ------------------------------------------------------------ dispatch
    def _start(self) -> _Worker:
        conn, child_conn = multiprocessing.Pipe()
        parent_ends = [worker.conn for worker in self._workers] + [conn]
        process = multiprocessing.Process(
            target=_worker_main, daemon=True,
            args=(child_conn, parent_ends, self.manifests, self.config.retry,
                  obs_metrics.enabled()))
        process.start()
        child_conn.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        return worker

    def _send(self, worker: _Worker, run: Tuple[int, int]) -> None:
        if not worker.held:
            worker.started_at = time.monotonic()
        worker.held.append(run)
        try:
            worker.conn.send(run[0])
        except (BrokenPipeError, ConnectionResetError):
            pass  # the worker is dead: its sentinel settles what it holds

    def _fill(self) -> None:
        """Start missing workers, then give each a running and a queued run."""
        while self._queue and len(self._workers) < self.processes:
            self._start()
        for depth in (1, 2):
            for worker in self._workers:
                if self._queue and len(worker.held) < depth:
                    self._send(worker, self._queue.popleft())

    # ---------------------------------------------------------------- wait
    def _deadline(self, worker: _Worker) -> float:
        """When the worker's running run exceeds its budget (inf if never)."""
        timeout = self.config.run_timeout_s
        if timeout is None or not worker.held:
            return math.inf
        return worker.started_at + timeout

    def _wait(self) -> Iterator[Outcome]:
        """Block until a completion, a death or the earliest deadline."""
        # Imported here so that a serial campaign never loads it: the module
        # and its imports add about 1 MB to a serial pass's peak RSS.
        from multiprocessing.connection import wait

        earliest = min(map(self._deadline, self._workers), default=math.inf)
        handles: List[Any] = [worker.conn for worker in self._workers]
        handles += [worker.process.sentinel for worker in self._workers]
        ready = wait(handles, None if earliest == math.inf
                     else max(0.0, earliest - time.monotonic()))
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.conn in ready:
                yield from self._receive(worker)
            if worker.process.sentinel in ready:
                yield from self._lost(worker)
            elif now >= self._deadline(worker):
                yield self._expired(worker)

    def _receive(self, worker: _Worker) -> Iterator[Outcome]:
        """Yield every outcome the worker has sent, topping it up as it goes."""
        while worker.held and worker.conn.poll():
            try:
                outcome, snapshot = worker.conn.recv()
            except (EOFError, ConnectionResetError):
                return  # the worker died; its sentinel reports it
            worker.held.pop(0)
            worker.started_at = time.monotonic()
            if snapshot is not None:
                self.snapshots[worker.process.pid] = snapshot
            if self._queue:
                self._send(worker, self._queue.popleft())
            yield outcome

    # ------------------------------------------------------------ failures
    def _retire(self, worker: _Worker) -> Optional[Tuple[int, int]]:
        """Reap a dead or killed worker and re-queue its queued run uncharged.

        Returns the run it was executing, if any.
        """
        self._workers.remove(worker)
        self._reap(worker)
        self.worker_restarts += 1
        if not worker.held:
            return None
        self._queue.extendleft(worker.held[1:])
        return worker.held[0]

    def _lost(self, worker: _Worker) -> Iterator[Outcome]:
        """The worker died: re-dispatch its running run once, then quarantine it."""
        running = self._retire(worker)
        if running is None:
            return
        index, attempt = running
        if attempt < _MAX_DISPATCH_ATTEMPTS:
            self._queue.appendleft((index, attempt + 1))
            return
        yield (ERROR,
               error_record(self.manifests[index], classification=WORKER_LOST,
                            attempts=attempt,
                            wall_s=time.monotonic() - worker.started_at,
                            message=(f"worker process died {attempt} time(s) "
                                     "while executing this run")),
               attempt)

    def _expired(self, worker: _Worker) -> Outcome:
        """The running run outlived its budget: kill its worker, quarantine it."""
        timeout = self.config.run_timeout_s
        index, attempt = worker.held[0]
        worker.process.kill()
        self._retire(worker)
        return (ERROR,
                error_record(self.manifests[index], classification=TIMEOUT,
                             attempts=attempt, wall_s=timeout,
                             message=(f"run exceeded its wall-clock budget of "
                                      f"{timeout}s")),
                attempt)

    def _degrade(self) -> Iterator[Outcome]:
        """Give up on worker processes; the remaining runs execute here."""
        for worker in self._workers:
            self._queue.extend(worker.held)
        self._stop()
        manifests = [self.manifests[index] for index, _attempt in self._queue]
        self._queue.clear()
        yield from execute_serially(manifests, self.config.retry, on_retry=_note_retry)

    # ------------------------------------------------------------ shutdown
    @staticmethod
    def _reap(worker: _Worker) -> None:
        worker.process.join()
        worker.process.close()
        worker.conn.close()

    def _stop(self) -> None:
        """End every worker: idle ones are told to exit, busy ones are killed."""
        for worker in self._workers:
            if worker.held:
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # already gone; join reaps it
        for worker in self._workers:
            self._reap(worker)
        self._workers.clear()
