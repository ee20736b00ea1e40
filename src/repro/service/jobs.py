"""Job lifecycle behind the sweep service: queue, dedupe, run, reap.

The manager is plain threads, a bounded :class:`queue.Queue` and one
``multiprocessing`` child per running sweep, so every policy here (rate
limits, backpressure, cancellation, drain) unit-tests without a server.
Its methods are thread-safe: the HTTP layer in :mod:`repro.service.http`
calls them straight from its per-request threads and translates the
exceptions raised by :meth:`JobManager.submit` into status codes.

Submission pipeline, in order::

    drain check          -> ServiceDraining   (HTTP 503)
    recovery barrier     -> submissions wait until journal replay finishes
    idempotency key      -> same key seen before -> that job, even terminal
    token bucket         -> RateLimited       (HTTP 429 + Retry-After)
    schema validation    -> RequestError      (HTTP 422)
    coalesce: same sweep_key already queued/running -> that job, no new work
    dedupe: every cell already in the ResultCache   -> run inline, zero sims
    bounded queue        -> QueueFull         (HTTP 503)

Durability: every transition a job makes (submitted, queued, running —
with the child's pid and kernel start time — finished, failed, cancelled,
expired) is appended to a crash-safe
:class:`~repro.service.journal.ServiceJournal` under ``state_dir``, and
:meth:`JobManager.recover` replays it on startup: terminal jobs are
restored as queryable records, orphaned sweep children are SIGKILLed
(pid + start-time matched, so recycled pids are safe), and interrupted
jobs are re-queued.  A re-queued job re-runs through the same per-job
sweep journal and the shared :class:`~repro.runner.cache.ResultCache`,
so every cell the dead server already finished is served as a cache hit —
zero duplicate simulations, bit-identical counters.

The dedupe step is the service's core economy: a grid whose every cell
(full key, or re-priceable base key) is already on disk never touches the
worker queue — it runs :func:`_sweep_to_disk` inline against the
service's shared cache and registry, so the ``cache.hit`` counters land
in ``GET /metrics`` and the submitter gets a finished job in one round
trip.  Everything else runs the same function in a child process, which
writes the job's status snapshot/journal/spans under ``jobs/<id>/``,
ships its metrics snapshot back over a pipe, and the parent folds it in
via :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` — one
scrape endpoint sees every sweep, however it executed.  A child process
also makes cancellation honest: ``terminate()`` actually stops a sweep
mid-flight.  Every job ends in :meth:`JobManager._settle`, so its status
snapshot, the failure counter and the journal agree however it ended.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import shutil
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..obs.log import fields as log_fields
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, set_registry
from ..obs.telemetry import SpanRecorder, read_status, write_status
from ..resilience.faults import FaultPlan
from ..resilience.journal import SweepJournal
from ..runner.cache import ResultCache
from ..runner.sweep import run_sweep
from .journal import SERVICE_JOURNAL_NAME, ServiceJournal, pid_start_time
from .schema import (
    RequestError,
    SweepOptions,
    SweepRequest,
    parse_request,
    report_payload,
    validate_idempotency_key,
)

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "QueueFull",
    "RateLimited",
    "ServiceDraining",
    "TokenBucket",
]

logger = get_logger("service.jobs")

#: Default cap on queued-but-not-running jobs.
DEFAULT_QUEUE_LIMIT = 16

#: Default seconds a terminal job's record (and directory) is kept.
DEFAULT_JOB_TTL = 3600.0

#: Journal-only states recovery must never resurrect a job from.
_DROPPED_STATES = frozenset({"expired", "rejected"})


class JobState:
    """The job lifecycle's states (plain strings — they go over the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({FINISHED, FAILED, CANCELLED})


class RateLimited(Exception):
    """The client's token bucket is empty; retry after ``retry_after``."""

    def __init__(self, retry_after: float) -> None:
        self.retry_after = max(retry_after, 0.001)
        super().__init__(f"rate limited; retry in {self.retry_after:.2f}s")


class QueueFull(Exception):
    """The bounded job queue is at capacity (HTTP 503)."""


class ServiceDraining(Exception):
    """The service is shutting down and no longer accepts work (HTTP 503)."""


class TokenBucket:
    """Per-client token bucket: ``rate`` tokens/second, ``burst`` capacity.

    The clock is injectable so tests can exhaust a bucket deterministically
    (``rate=0`` never refills).  ``rate=None`` disables limiting entirely.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: int,
        clock=time.monotonic,
    ) -> None:
        if rate is not None and rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def take(self) -> None:
        """Consume one token or raise :class:`RateLimited`."""
        if self.rate is None:
            return
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            if self.rate == 0:
                raise RateLimited(retry_after=60.0)
            raise RateLimited(retry_after=(1.0 - self._tokens) / self.rate)


@dataclass
class Job:
    """One submitted sweep and everything known about it."""

    job_id: str
    request: SweepRequest
    sweep_key: str
    directory: Path
    client: str
    submitted_at: float
    state: str = JobState.QUEUED
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: True when every cell was already cached and the job ran inline
    deduped: bool = False
    #: Client-supplied retry token this job was submitted under, if any
    idempotency_key: Optional[str] = None
    #: True when this job was rebuilt from the service journal at startup
    recovered: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )
    process: Optional[multiprocessing.process.BaseProcess] = field(
        default=None, repr=False
    )

    @property
    def status_path(self) -> Path:
        return self.directory / "status.json"

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.jsonl"

    @property
    def result_path(self) -> Path:
        return self.directory / "result.json"

    @property
    def spans_path(self) -> Path:
        return self.directory / "spans.json"

    def snapshot(self) -> dict:
        """The job as JSON: manager-side lifecycle + the sweep's own status.

        The sweep's heartbeat snapshot (written by ``run_sweep`` inside the
        child) carries cell progress; the manager's record is authoritative
        for lifecycle state, since the child cannot observe its own
        termination.
        """
        with self.lock:
            payload: dict = {
                "id": self.job_id,
                "state": self.state,
                "sweep_key": self.sweep_key,
                "cells": len(self.request.specs),
                "deduped": self.deduped,
                "recovered": self.recovered,
                "client": self.client,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }
            if self.error is not None:
                payload["error"] = self.error
            if self.idempotency_key is not None:
                payload["idempotency_key"] = self.idempotency_key
        sweep_status = read_status(self.status_path)
        if sweep_status is not None:
            payload["sweep"] = sweep_status
        return payload


def _sweep_to_disk(
    job_dir: Path,
    specs,
    options: SweepOptions,
    cache: ResultCache,
    registry: MetricsRegistry,
    recorder: Optional[SpanRecorder] = None,
) -> None:
    """Run one job's sweep: the only ``run_sweep`` call of the service.

    The sweep keeps its status snapshot and journal under ``job_dir``;
    ``result.json`` is written atomically, and ``spans.json`` when a
    recorder is given.
    """
    report = run_sweep(
        specs,
        jobs=options.jobs,
        cache=cache,
        registry=registry,
        retry=options.retries,
        cell_timeout=options.cell_timeout,
        keep_going=options.keep_going,
        journal=SweepJournal(job_dir / "journal.jsonl"),
        telemetry=recorder,
        status_path=job_dir / "status.json",
    )
    tmp = job_dir / "result.json.tmp"
    tmp.write_text(json.dumps(report_payload(report), indent=2, sort_keys=True))
    os.replace(tmp, job_dir / "result.json")
    if recorder is not None:
        recorder.write_chrome_trace(job_dir / "spans.json")


def _job_process_main(
    conn,
    specs,
    options,
    cache_dir: str,
    job_dir: str,
) -> None:
    """Child-process entry: run one sweep with the full telemetry substrate.

    Builds a fresh registry, cache and span recorder (fork inherits the
    parent's — sharing them across the process boundary would double
    count), runs the sweep through :func:`_sweep_to_disk`, and ships
    ``{"ok", "metrics", "error"?}`` back over the pipe so the parent can
    fold this sweep into the service-wide registry.
    """
    registry = MetricsRegistry()
    set_registry(registry)
    outcome: dict = {"ok": False}
    try:
        cache = ResultCache(Path(cache_dir), registry=registry)
        _sweep_to_disk(
            Path(job_dir), specs, options, cache, registry, SpanRecorder()
        )
        outcome["ok"] = True
    except Exception as error:  # ships the failure, never a traceback dump
        outcome["error"] = f"{type(error).__name__}: {error}"
    outcome["metrics"] = registry.as_dict()
    try:
        conn.send(outcome)
    finally:
        conn.close()


class JobManager:
    """Owns the job table, the worker pool and the shared result cache.

    ``start_gate``, when given, is a :class:`threading.Event` every worker
    waits on after marking its job RUNNING and before launching the sweep
    process — a test seam that freezes the pipeline in a known state so
    queue-full 503s and queued-job cancellation are deterministic.
    """

    def __init__(
        self,
        root: Path,
        workers: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_cells: int = 4096,
        max_jobs: int = 4,
        rate_per_sec: Optional[float] = None,
        burst: int = 10,
        job_ttl: float = DEFAULT_JOB_TTL,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        start_gate: Optional[threading.Event] = None,
        state_dir: Optional[Path] = None,
        fault_plan: Optional[FaultPlan] = None,
        recover: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        TokenBucket(rate_per_sec, burst)  # rejects bad limits now, not per submit
        self.root = Path(root)
        self.jobs_root = self.root / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self.state_dir = (
            Path(state_dir) if state_dir is not None else self.root / "state"
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.journal = ServiceJournal(
            self.state_dir / SERVICE_JOURNAL_NAME,
            plan=fault_plan,
            registry=self.registry,
        )
        self.cache = ResultCache(self.root / "cache", registry=self.registry)
        self.max_cells = max_cells
        self.max_jobs = max_jobs
        self.job_ttl = job_ttl
        self._rate_per_sec = rate_per_sec
        self._burst = burst
        self._clock = clock
        self._start_gate = start_gate
        self._jobs: Dict[str, Job] = {}
        self._idempotency: Dict[str, str] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=queue_limit
        )
        self._draining = False
        self._recovered = threading.Event()
        self._mp = multiprocessing.get_context()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"sweep-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()
        if recover and self.journal.exists():
            threading.Thread(
                target=self._recover_main, name="service-recovery", daemon=True
            ).start()
        else:
            self._recovered.set()

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        payload: object,
        client: str = "anonymous",
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Take one request through the full admission pipeline.

        Raises :class:`ServiceDraining`, :class:`RateLimited`,
        :class:`~repro.service.schema.RequestError` or :class:`QueueFull`;
        otherwise returns the job — possibly an existing one (same
        idempotency key seen before, or coalesced on identical in-flight
        grids) or an already-finished one (fully cache-covered, ran
        inline).  ``idempotency_key`` (the ``Idempotency-Key`` header)
        takes precedence over a key embedded in the request body.
        """
        if self._draining:
            raise ServiceDraining("service is draining; not accepting sweeps")
        # Submissions wait out journal replay: the idempotency map and job
        # table are only trustworthy once recovery has rebuilt them.
        self._recovered.wait()
        if idempotency_key is not None:
            problem = validate_idempotency_key(idempotency_key)
            if problem is not None:
                raise RequestError(
                    [{"field": "idempotency-key header", "error": problem}]
                )
        # Fast idempotent replay: a key we have seen returns its job —
        # even a terminal one — before rate limiting, so a client
        # retrying a dropped response is never throttled into giving up.
        retry_key = idempotency_key
        if retry_key is None and isinstance(payload, Mapping):
            raw = payload.get("idempotency_key")
            if isinstance(raw, str):
                retry_key = raw
        if retry_key is not None:
            existing = self._job_for_key(retry_key)
            if existing is not None:
                self.registry.counter("service.jobs_idempotent").inc()
                return existing

        self._bucket_for(client).take()
        request = parse_request(
            payload, max_cells=self.max_cells, max_jobs=self.max_jobs
        )
        key = (
            idempotency_key
            if idempotency_key is not None
            else request.idempotency_key
        )
        sweep_key = request.sweep_key()
        fully_cached = self._fully_cached(request)

        # One admission at a time from the coalescing check to the
        # registration: identical submissions racing through here would
        # otherwise all miss the check and each create a job.
        with self._admit_lock:
            with self._lock:
                for job in self._jobs.values():
                    if (
                        job.sweep_key == sweep_key
                        and job.state not in JobState.TERMINAL
                    ):
                        self.registry.counter("service.jobs_coalesced").inc()
                        if key is not None:
                            self._idempotency[key] = job.job_id
                        return job

            job_id = uuid.uuid4().hex[:12]
            job = Job(
                job_id=job_id,
                request=request,
                sweep_key=sweep_key,
                directory=self.jobs_root / job_id,
                client=client,
                submitted_at=time.time(),
                deduped=fully_cached,
                idempotency_key=key,
            )
            job.directory.mkdir(parents=True, exist_ok=True)
            (job.directory / "request.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True)
            )
            write_status(
                job.status_path,
                {"state": JobState.QUEUED, "cells": len(request.specs)},
            )
            self.journal.record(
                job.job_id,
                "submitted",
                sweep_key=sweep_key,
                client=client,
                idempotency_key=key,
                request=payload,
                cells=len(request.specs),
                submitted_at=job.submitted_at,
            )
            self._register(job)

        if job.deduped:
            # Zero simulations ahead: replay inline through the shared cache
            # so the hits count in the service registry and the caller gets
            # a terminal job immediately, bypassing the queue entirely.
            self.registry.counter("service.jobs_deduped").inc()
            self._run_inline(job)
            return job

        # Journal "queued" BEFORE the put: once the job is on the queue a
        # worker may append "running" at any moment, and the journal's
        # merge is append-ordered.  A rejected put appends "rejected",
        # which supersedes the optimistic "queued".
        self.journal.record(job.job_id, "queued")
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                self._jobs.pop(job.job_id, None)
                if key is not None:
                    self._idempotency.pop(key, None)
            self.registry.counter("service.queue_rejected").inc()
            self.journal.record(job.job_id, "rejected")
            raise QueueFull(
                f"job queue is full ({self._queue.maxsize} waiting)"
            ) from None
        self.registry.counter("service.jobs_submitted").inc()
        return job

    def _register(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.job_id] = job
            if job.idempotency_key is not None:
                self._idempotency[job.idempotency_key] = job.job_id

    def _job_for_key(self, key: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(self._idempotency.get(key, ""))

    def _bucket_for(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(
                    self._rate_per_sec, self._burst, clock=self._clock
                )
                self._buckets[client] = bucket
            return bucket

    def _fully_cached(self, request: SweepRequest) -> bool:
        """True when no cell of this grid would simulate anything.

        A cell is covered by its full cache key, or — the PR 6 re-pricing
        path — by its base key (same configuration under any
        characterization), which ``run_sweep`` re-prices without
        simulating.
        """
        for spec in request.specs:
            if self.cache.path_for(spec.cache_key()).exists():
                continue
            base = spec.base_cache_key()
            if base != spec.cache_key() and self.cache.path_for(base).exists():
                continue
            return False
        return True

    def _run_inline(self, job: Job) -> None:
        """Serve a fully-cached job in the submitting thread."""
        if not self._start(job):
            return
        self.journal.record(job.job_id, "running", started_at=job.started_at)
        try:
            _sweep_to_disk(
                job.directory,
                list(job.request.specs),
                SweepOptions(keep_going=job.request.options.keep_going),
                self.cache,
                self.registry,
            )
        except Exception as error:
            self._settle(job, JobState.FAILED, f"{type(error).__name__}: {error}")
        else:
            self._settle(job, JobState.FINISHED)

    def _start(self, job: Job) -> bool:
        """QUEUED -> RUNNING, or False when cancel() caught (and settled) it."""
        with job.lock:
            if job.cancel_event.is_set():
                return False
            job.state = JobState.RUNNING
            job.started_at = time.time()
        return True

    def _settle(self, job: Job, state: str, error: Optional[str] = None) -> None:
        """Move ``job`` to the terminal ``state``: the only way a job ends.

        A failed or cancelled job's status snapshot says so (the sweep's
        own snapshot cannot: it never finished), and the transition is
        journaled last.
        """
        with job.lock:
            job.state = state
            job.finished_at = time.time()
            job.error = error
            job.process = None
        extra: dict = {"finished_at": job.finished_at}
        if state != JobState.FINISHED:
            status = {"state": state}
            if error is not None:
                status["error"] = extra["error"] = error
            write_status(job.status_path, status)
        if state == JobState.FAILED:
            self.registry.counter("service.jobs_failed").inc()
        self.journal.record(job.job_id, state, **extra)

    # -- worker side -----------------------------------------------------------

    def _worker_loop(self) -> None:
        for job in iter(self._queue.get, None):  # None: the shutdown sentinel
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if not self._start(job):
            return
        if self._start_gate is not None:
            self._start_gate.wait()
        if job.cancel_event.is_set():
            self._settle(job, JobState.CANCELLED)
            return

        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_job_process_main,
            args=(
                child_conn,
                list(job.request.specs),
                job.request.options,
                str(self.cache.directory),
                str(job.directory),
            ),
            daemon=True,
        )
        with job.lock:
            job.process = process
        process.start()
        child_conn.close()
        # The pid plus its kernel start time uniquely name this child
        # incarnation: recovery after a crash can kill the orphan without
        # ever signalling a recycled pid.
        self.journal.record(
            job.job_id,
            "running",
            pid=process.pid,
            pid_start=pid_start_time(process.pid),
            started_at=job.started_at,
        )

        outcome: Optional[dict] = None
        while not job.cancel_event.is_set():
            # Liveness is read before the poll, so a child that has exited
            # still gets one: it may have sent between our checks.
            exited = not process.is_alive()
            if parent_conn.poll(timeout=0.1):
                try:
                    outcome = parent_conn.recv()
                except EOFError:
                    pass
                break
            if exited:
                break
        if outcome is None:  # cancelled, or the child died without a word
            process.terminate()
        process.join(timeout=10.0)
        parent_conn.close()

        if outcome is not None:
            # Fold the child's metrics in BEFORE publishing a terminal state:
            # a client that polls to completion and immediately scrapes
            # /metrics must see this sweep's counters.
            self.registry.merge_snapshot(outcome["metrics"])
            state = JobState.FINISHED if outcome["ok"] else JobState.FAILED
            self._settle(job, state, outcome.get("error"))
        elif job.cancel_event.is_set():
            self._settle(job, JobState.CANCELLED)
        else:
            error = f"sweep process died (exit code {process.exitcode})"
            self._settle(job, JobState.FAILED, error)

    # -- crash recovery --------------------------------------------------------

    def _recover_main(self) -> None:
        """Background-thread wrapper: recovery must never wedge the service."""
        try:
            summary = self.recover()
            logger.info(
                "service recovery complete", extra=log_fields(**summary)
            )
        except Exception as error:  # pragma: no cover - defensive
            logger.error(
                "service recovery failed; starting with an empty job table",
                extra=log_fields(error=f"{type(error).__name__}: {error}"),
            )
        finally:
            self._recovered.set()

    @property
    def recovering(self) -> bool:
        """True while journal replay is still rebuilding the job table."""
        return not self._recovered.is_set()

    def wait_recovered(self, timeout: Optional[float] = None) -> bool:
        """Block until recovery finishes; True when it has."""
        return self._recovered.wait(timeout)

    def recover(self) -> dict:
        """Replay the service journal: restore, reap orphans, re-queue.

        Terminal jobs inside their TTL come back as queryable records;
        jobs the dead server left submitted/queued/running are re-queued
        (after SIGKILLing any orphaned sweep child whose pid *and* kernel
        start time still match the journal), and jobs whose request can
        no longer be parsed — a torn ``submitted`` line — are restored as
        FAILED so the client sees a terminal answer instead of a 404.
        Re-queued jobs re-run through the shared :class:`ResultCache`, so
        cells the previous incarnation completed are cache hits: zero
        duplicate simulations.  The journal is compacted to the surviving
        records before anything is re-queued (nothing else appends until
        ``_recovered`` is set, so compaction cannot lose a transition).
        """
        with self.registry.timer("service.recovery").time():
            records = self.journal.load()
            live: Dict[str, dict] = {}
            restored: List[Job] = []
            requeue: List[Job] = []
            orphans = 0
            now = time.time()
            for job_id, record in records.items():
                state = record.get("state")
                if state in _DROPPED_STATES:
                    continue
                if state not in JobState.TERMINAL:
                    # submitted/queued/running: the crash interrupted this job.
                    # Reap regardless of the merged state — a "running" append
                    # can race a "queued" one, but the pid fields survive the
                    # merge either way (no-op when the record has no pid).
                    orphans += self._reap_orphan(job_id, record)
                    job, problem = self._rebuild_job(job_id, record)
                    if problem is None:
                        requeued_record = dict(record, state="queued")
                        requeued_record.pop("pid", None)
                        requeued_record.pop("pid_start", None)
                        live[job_id] = requeued_record
                        requeue.append(job)
                        continue
                    # Its request no longer parses: restore it as FAILED.
                    state = JobState.FAILED
                    record = dict(record, state=state, error=problem, finished_at=now)
                finished = record.get("finished_at")
                if not isinstance(finished, (int, float)):
                    finished = record.get("ts", now)
                if (
                    self.job_ttl is not None
                    and self.job_ttl > 0
                    and now - float(finished) > self.job_ttl
                ):
                    continue  # expired while down; falls out on compact
                job, _ = self._rebuild_job(job_id, record)
                with job.lock:
                    job.state = state
                    job.finished_at = float(finished)
                    started = record.get("started_at")
                    if isinstance(started, (int, float)):
                        job.started_at = float(started)
                    error = record.get("error")
                    if isinstance(error, str):
                        job.error = error
                live[job_id] = dict(record)
                restored.append(job)
            self.journal.compact(live)
            for job in restored:
                self._register(job)
            for job in requeue:
                job.directory.mkdir(parents=True, exist_ok=True)
                write_status(
                    job.status_path,
                    {
                        "state": JobState.QUEUED,
                        "cells": len(job.request.specs),
                        "recovered": True,
                    },
                )
                self._register(job)
                self._queue.put(job)
            recovered = len(restored) + len(requeue)
            if recovered:
                self.registry.counter("service.jobs_recovered").inc(recovered)
            if orphans:
                self.registry.counter("service.jobs_orphaned").inc(orphans)
        return {
            "recovered": recovered,
            "restored": len(restored),
            "requeued": len(requeue),
            "orphans": orphans,
        }

    def _rebuild_job(self, job_id: str, record: dict) -> "tuple[Job, Optional[str]]":
        """A Job from a merged journal record, plus a problem string if the
        request payload can no longer be parsed (torn ``submitted`` line,
        schema drift across versions)."""
        problem: Optional[str] = None
        try:
            request = parse_request(
                record.get("request"),
                max_cells=self.max_cells,
                max_jobs=self.max_jobs,
            )
        except RequestError as error:
            request = SweepRequest(specs=(), options=SweepOptions())
            problem = f"unrecoverable after restart: {error}"
        submitted = record.get("submitted_at")
        if not isinstance(submitted, (int, float)):
            submitted = record.get("ts", time.time())
        key = record.get("idempotency_key")
        job = Job(
            job_id=job_id,
            request=request,
            sweep_key=str(record.get("sweep_key", "")),
            directory=self.jobs_root / job_id,
            client=str(record.get("client", "anonymous")),
            submitted_at=float(submitted),
            idempotency_key=key if isinstance(key, str) else None,
            recovered=True,
        )
        return job, problem

    def _reap_orphan(self, job_id: str, record: dict) -> int:
        """SIGKILL the orphaned sweep child of a crashed incarnation.

        Only when the journalled pid's kernel start time still matches —
        a pid the OS has recycled belongs to someone else and is left
        alone.  Returns how many processes were killed (0 or 1).
        """
        pid = record.get("pid")
        start = record.get("pid_start")
        if not isinstance(pid, int) or not isinstance(start, str):
            return 0
        if pid_start_time(pid) != start:
            return 0
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            return 0
        logger.warning(
            "killed orphaned sweep child from previous incarnation",
            extra=log_fields(job=job_id, pid=pid),
        )
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and pid_start_time(pid) == start:
            time.sleep(0.05)
        return 1

    # -- queries and lifecycle -------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        self._recovered.wait()
        self._reap()
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        self._recovered.wait()
        self._reap()
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda job: job.submitted_at
            )

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job, or None if unknown.

        Queued jobs flip straight to CANCELLED (the worker skips them);
        running jobs get their sweep process terminated by the worker's
        poll loop within ~100ms.
        """
        job = self.get(job_id)
        if job is None:
            return None
        with job.lock:
            if job.state in JobState.TERMINAL or job.cancel_event.is_set():
                return job  # ended, or a cancel is already settling it
            job.cancel_event.set()
            queued = job.state == JobState.QUEUED
        if queued:
            self._settle(job, JobState.CANCELLED)
        self.registry.counter("service.jobs_cancelled").inc()
        return job

    def _reap(self) -> None:
        """Evict terminal jobs older than the TTL (record and directory)."""
        if self.job_ttl is None or self.job_ttl <= 0:
            return
        now = time.time()
        expired: List[Job] = []
        with self._lock:
            for job_id, job in list(self._jobs.items()):
                if (
                    job.state in JobState.TERMINAL
                    and job.finished_at is not None
                    and now - job.finished_at > self.job_ttl
                ):
                    expired.append(self._jobs.pop(job_id))
                    if self._idempotency.get(job.idempotency_key) == job_id:
                        del self._idempotency[job.idempotency_key]
        for job in expired:
            self.registry.counter("service.jobs_expired").inc()
            self.journal.record(job.job_id, "expired")
            shutil.rmtree(job.directory, ignore_errors=True)

    @property
    def draining(self) -> bool:
        return self._draining

    def health_info(self) -> dict:
        """Liveness/readiness signals for ``/healthz`` and ``/readyz``.

        ``degraded`` lists everything currently wrong: recovery still
        replaying the journal, the service draining, the job queue
        saturated, or nonzero write-failure counters (result cache or
        service journal) — the service still answers, but a crash right
        now would lose more than usual.
        """
        depth = self._queue.qsize()
        put_errors = self.registry.counter_value("cache.put_errors")
        journal_errors = self.registry.counter_value("service.journal_errors")
        degraded: List[str] = []
        if self.recovering:
            degraded.append("recovery_in_progress")
        if self._draining:
            degraded.append("draining")
        if depth >= self._queue.maxsize:
            degraded.append("queue_saturated")
        if put_errors:
            degraded.append("cache_put_errors")
        if journal_errors:
            degraded.append("journal_errors")
        return {
            "draining": self._draining,
            "recovering": self.recovering,
            "queue_depth": depth,
            "queue_limit": self._queue.maxsize,
            "cache_put_errors": put_errors,
            "journal_errors": journal_errors,
            "degraded": degraded,
        }

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop admitting work and wait for in-flight jobs to finish.

        Returns True when everything reached a terminal state in time.
        Safe to call more than once.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        # Recovery may still be re-queueing; the drain must see those jobs.
        self._recovered.wait(max(0.0, deadline - time.monotonic()))
        while time.monotonic() < deadline:
            with self._lock:
                busy = [
                    job
                    for job in self._jobs.values()
                    if job.state not in JobState.TERMINAL
                ]
            if not busy:
                return True
            time.sleep(0.05)
        return False

    def shutdown(self, cancel_running: bool = False) -> None:
        """Tear the worker pool down (used by tests and the serve loop)."""
        self._draining = True
        if cancel_running:
            with self._lock:
                jobs = list(self._jobs.values())
            for job in jobs:
                self.cancel(job.job_id)  # a no-op on terminal jobs
        for _ in self._workers:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        for worker in self._workers:
            worker.join(timeout=5.0)
