"""Process-per-cell execution: isolation, kill-based timeouts, crash detection.

The original sweep loop fanned cells over ``multiprocessing.Pool.imap``,
which has two fatal failure modes for long sweeps: a raised exception in
any cell aborts the whole iteration, and a SIGKILL'd worker (OOM killer,
operator, fault injection) leaves the pool waiting forever for a result
that will never arrive.  :class:`CellExecutor` replaces it with one child
process per cell attempt, dispatched future-style:

* each cell runs in its own process with a dedicated result pipe, so a
  crash loses exactly that attempt — the "pool" is replaced for free
  because nothing is shared;
* the parent owns a wall-clock deadline per in-flight cell and SIGKILLs
  overruns (a cooperative timeout cannot interrupt a stuck simulation);
* a worker that dies without reporting is detected by process exit, not
  by a hang, and surfaces as a ``worker-crash`` event;
* retries re-enter through :meth:`CellExecutor.submit` with a delay, so
  backoff scheduling lives in the same queue as fresh dispatches.

Telemetry crosses the process boundary on the same result pipe (see
``docs/observability.md``): every worker attempt swaps a **fresh**
process-wide metrics registry in (:func:`repro.obs.metrics.set_registry`)
so whatever the attempt tallies — cache traffic, corrupt-entry
deletions, ad-hoc counters — comes back as a snapshot delta on the
event, and when the sweep ships a :data:`~repro.obs.telemetry.SpanContext`
the worker records ``attempt``/``stage`` spans under the parent's cell
span and returns them serialised alongside the delta.  Both ride on
success *and* failure events, so a retried attempt's telemetry survives
the retry.

One attempt — fire the fault plan, run the spec, time it, record its
attempt/stage spans and collect its manifest — is :func:`run_attempt`,
which the sweep's inline path calls as well, so a cell attempt is written
once whether it runs here or in the parent.

Events are raw tuples; the sweep loop turns them into
:class:`~repro.resilience.errors.RunError`s (which know the attempt
budget) and :class:`~repro.runner.sweep.RunOutcome`s.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_connections
from typing import Dict, List, Optional, Tuple

from ..obs.manifest import collect_manifest
from ..obs.metrics import MetricsRegistry, set_registry
from ..obs.telemetry import SpanRecorder, attempt_scope, stage

__all__ = ["CellEvent", "CellExecutor", "run_attempt"]

#: Upper bound on one poll's blocking wait; keeps timeouts responsive.
POLL_SECONDS = 0.05


def run_attempt(
    spec,
    attempt: int,
    faults=None,
    recorder: Optional[SpanRecorder] = None,
    parent=None,
    tid: int = 0,
    probe=None,
    allow_kill: bool = True,
    traces=None,
) -> Tuple:
    """One cell attempt, in a worker process or inline in the sweep's own.

    Fires the fault plan's worker faults for (cell, ``attempt``), runs
    ``spec.run(probe=probe, traces=traces)``, times it and collects the
    run manifest; ``traces`` is the caller's trace memo (see
    :meth:`~repro.runner.spec.RunSpec.run`), and a trace the attempt
    generates is left in it.  With a ``recorder`` the attempt records an
    ``attempt`` span under ``parent``; the run's ``trace.generate`` and
    ``core.simulate`` stages and the attempt's own ``report`` stage hang
    under it (:func:`~repro.obs.telemetry.attempt_scope`).

    Returns the message the executor's result pipe carries, before its
    telemetry fields: ``("ok", result, elapsed, pid, manifest)``, or
    ``("error", exc_type, message, traceback, pid, elapsed)`` when the
    attempt raised an ``Exception``.  Anything else (an interrupt) closes
    the span and propagates.
    """
    pid = os.getpid()
    cell = spec.cell_id()
    span = None
    if recorder is not None:
        span = recorder.begin(
            f"attempt {attempt}", kind="attempt", parent=parent, tid=tid,
            attempt=attempt, cell=cell,
        )
    start = time.perf_counter()
    try:
        with attempt_scope(recorder, span, tid):
            if faults is not None:
                faults.fire_worker_faults(cell, attempt, allow_kill=allow_kill)
            result = spec.run(probe=probe, traces=traces)
            elapsed = time.perf_counter() - start
            with stage("report"):
                manifest = collect_manifest(
                    spec.as_dict(), spec.cache_key(), elapsed, worker_pid=pid
                )
    except Exception as exc:  # noqa: BLE001 - a failed attempt is an event
        elapsed = time.perf_counter() - start
        if span is not None:
            span.end(status="error", error=type(exc).__name__)
        return (
            "error", type(exc).__name__, str(exc), traceback.format_exc(),
            pid, elapsed,
        )
    except BaseException:
        if span is not None:
            span.end(status="interrupted")
        raise
    if span is not None:
        span.end(status="ok")
    return ("ok", result, elapsed, pid, manifest)


def _cell_worker(
    conn: Connection, spec, attempt: int, faults, span_context=None
) -> None:
    """Child entry point: run one attempt and report it on the pipe.

    The attempt runs against a fresh process-wide registry, whose snapshot
    travels back as the event's metrics delta, with
    ``sweep.trace_generations`` counting the trace the attempt generated
    (a worker shares no trace); with a ``span_context`` the attempt also
    records its span subtree (attempt → stages) for the parent to ingest.
    """
    registry = MetricsRegistry()
    set_registry(registry)
    recorder = parent = None
    if span_context is not None:
        trace_id, parent = span_context
        recorder = SpanRecorder(trace_id=trace_id)
    start = time.perf_counter()

    def _telemetry() -> Tuple[Optional[dict], List[dict]]:
        delta = registry.as_dict()
        if not any(delta.values()):
            delta = None
        return delta, recorder.serialized() if recorder is not None else []

    traces: dict = {}
    try:
        message = run_attempt(
            spec, attempt, faults, recorder, parent, traces=traces
        )
        if traces:
            registry.counter("sweep.trace_generations").inc()
        conn.send(message + _telemetry())
    except BaseException as exc:  # noqa: BLE001 - everything becomes an event
        conn.send(
            ("error", type(exc).__name__, str(exc), traceback.format_exc(),
             os.getpid(), time.perf_counter() - start) + _telemetry()
        )
    finally:
        conn.close()


@dataclass(frozen=True)
class CellEvent:
    """One finished cell attempt, success or failure."""

    index: int
    spec: object
    attempt: int
    #: (result, elapsed, worker_pid, manifest) on success, else None
    payload: Optional[Tuple] = None
    #: one of ERROR_KINDS on failure, else None
    kind: Optional[str] = None
    exc_type: str = ""
    message: str = ""
    traceback: Optional[str] = None
    worker: int = 0
    elapsed: float = 0.0
    #: the worker attempt's process-wide registry snapshot (None when empty)
    metrics: Optional[dict] = None
    #: the worker attempt's serialised spans (empty without a span context)
    spans: Tuple = field(default=())

    @property
    def ok(self) -> bool:
        return self.payload is not None


@dataclass
class _Task:
    process: multiprocessing.Process
    conn: Connection
    spec: object
    attempt: int
    started: float


class CellExecutor:
    """Dispatch cell attempts to child processes; poll for typed events."""

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        faults=None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout}")
        self._jobs = jobs
        self._timeout = timeout
        self._faults = faults
        self._ctx = multiprocessing.get_context()
        self._running: Dict[int, _Task] = {}
        self._queue: List[Tuple[float, int, int, object, int]] = []
        self._seq = 0

    # -- dispatch -------------------------------------------------------------

    def submit(
        self,
        index: int,
        spec,
        attempt: int = 1,
        delay: float = 0.0,
        span_context=None,
    ) -> None:
        """Queue one cell attempt, optionally delayed (retry backoff).

        ``span_context`` — a ``(trace_id, parent_span_id)`` pair — makes
        the worker record its attempt/stage spans under the parent's cell
        span (see :mod:`repro.obs.telemetry`).
        """
        heapq.heappush(
            self._queue,
            (
                time.monotonic() + delay,
                self._seq, index, spec, attempt, span_context,
            ),
        )
        self._seq += 1

    @property
    def active(self) -> bool:
        """True while any attempt is running or queued."""
        return bool(self._running or self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._running)

    def _start_ready(self) -> None:
        now = time.monotonic()
        while (
            self._queue
            and len(self._running) < self._jobs
            and self._queue[0][0] <= now
        ):
            _, _, index, spec, attempt, span_context = heapq.heappop(self._queue)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_cell_worker,
                args=(child_conn, spec, attempt, self._faults, span_context),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._running[index] = _Task(
                process=process,
                conn=parent_conn,
                spec=spec,
                attempt=attempt,
                started=time.monotonic(),
            )

    # -- polling --------------------------------------------------------------

    def poll(self) -> List[CellEvent]:
        """Start what's ready, wait briefly, and return finished attempts."""
        self._start_ready()
        events: List[CellEvent] = []
        if self._running:
            wait_connections(
                [task.conn for task in self._running.values()],
                timeout=POLL_SECONDS,
            )
            for index, task in list(self._running.items()):
                event = self._check(index, task)
                if event is not None:
                    events.append(event)
                    del self._running[index]
        elif self._queue:
            # Nothing in flight: sleep until the earliest backoff expires.
            pause = self._queue[0][0] - time.monotonic()
            if pause > 0:
                time.sleep(min(POLL_SECONDS, pause))
        self._start_ready()
        return events

    def _check(self, index: int, task: _Task) -> Optional[CellEvent]:
        if task.conn.poll():
            try:
                message = task.conn.recv()
            except (EOFError, OSError):
                return self._crash_event(index, task)
            return self._message_event(index, task, message)
        if not task.process.is_alive():
            return self._crash_event(index, task)
        if (
            self._timeout is not None
            and time.monotonic() - task.started > self._timeout
        ):
            return self._timeout_event(index, task)
        return None

    def _reap(self, task: _Task, kill: bool = False) -> None:
        if kill:
            task.process.kill()
        task.process.join()
        task.conn.close()

    def _message_event(self, index: int, task: _Task, message) -> CellEvent:
        self._reap(task)
        if message[0] == "ok":
            _, result, elapsed, pid, manifest, metrics, spans = message
            return CellEvent(
                index=index,
                spec=task.spec,
                attempt=task.attempt,
                payload=(result, elapsed, pid, manifest),
                worker=pid,
                metrics=metrics,
                spans=tuple(spans),
            )
        _, exc_type, text, tb, pid, elapsed, metrics, spans = message
        return CellEvent(
            index=index,
            spec=task.spec,
            attempt=task.attempt,
            kind="exception",
            exc_type=exc_type,
            message=text,
            traceback=tb,
            worker=pid,
            elapsed=elapsed,
            metrics=metrics,
            spans=tuple(spans),
        )

    def _crash_event(self, index: int, task: _Task) -> CellEvent:
        elapsed = time.monotonic() - task.started
        self._reap(task)
        exitcode = task.process.exitcode
        if exitcode is not None and exitcode < 0:
            exc_type = f"Signal({-exitcode})"
        else:
            exc_type = f"Exit({exitcode})"
        return CellEvent(
            index=index,
            spec=task.spec,
            attempt=task.attempt,
            kind="worker-crash",
            exc_type=exc_type,
            message=(
                "worker process died before returning a result "
                f"(exit code {exitcode})"
            ),
            worker=task.process.pid or 0,
            elapsed=elapsed,
        )

    def _timeout_event(self, index: int, task: _Task) -> CellEvent:
        elapsed = time.monotonic() - task.started
        self._reap(task, kill=True)
        return CellEvent(
            index=index,
            spec=task.spec,
            attempt=task.attempt,
            kind="timeout",
            exc_type="CellTimeout",
            message=f"cell exceeded {self._timeout:g}s wall-clock limit",
            worker=task.process.pid or 0,
            elapsed=elapsed,
        )

    # -- teardown -------------------------------------------------------------

    def abort(self) -> int:
        """Kill everything in flight, drop the queue; returns cells dropped."""
        dropped = len(self._running) + len(self._queue)
        for task in self._running.values():
            self._reap(task, kill=True)
        self._running.clear()
        self._queue.clear()
        return dropped
