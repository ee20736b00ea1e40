"""The parallel sweep engine: fan RunSpecs across workers, merge results.

One sweep executes a grid of :class:`~repro.runner.spec.RunSpec`s —
consulting the optional :class:`~repro.runner.cache.ResultCache` first,
fanning the misses over worker processes (``jobs > 1``) or running them
inline (``jobs == 1``) — and returns a :class:`SweepReport` carrying every
result plus the throughput and cache metrics.

Re-pricing (the paper's Section 4.1 method at sweep scale): cells whose
specs differ only in the ``characterization`` pricing axis share a
:meth:`~repro.runner.spec.RunSpec.base_cache_key` and therefore identical
counters, so only one of them — the leader — simulates; the rest are served
from its result, flagged :attr:`RunOutcome.repriced` and counted in the
``sweep.repriced`` metric.  Sweeping k characterization files costs exactly
one simulation per (protocol, trace, ...) configuration.  Results land in
the cache under both the full key and the base key, so a *later* sweep with
a brand-new characterization file re-prices from disk without simulating at
all.  See ``docs/characterization.md``.

Trace sharing (the paper's one trace under every scheme): inline, pending
cells with the same :meth:`~repro.runner.spec.RunSpec.profile` share one
generated trace, made by the first of them and dropped after the last, so
a cold pass generates each distinct trace once (``sweep.trace_generations``).
Worker cells generate their own.  See ``docs/runner.md``.

Resilience (see ``docs/robustness.md``): cells execute one process per
attempt through :class:`~repro.resilience.executor.CellExecutor`, so a
cell that raises, hangs past ``cell_timeout`` (SIGKILLed by the parent) or
loses its worker to a crash becomes a structured
:class:`~repro.resilience.errors.RunError` rather than a hung or aborted
sweep.  Failed attempts are retried with exponential backoff and
deterministic jitter (:class:`~repro.resilience.retry.RetryPolicy`); a
cell that exhausts its budget either aborts the sweep
(``keep_going=False``, the historic fail-fast default, raising
:class:`~repro.resilience.errors.CellFailure`) or lands in
:attr:`SweepReport.failures` while the rest of the grid completes.  A
:class:`~repro.resilience.journal.SweepJournal` records every outcome for
crash-safe ``--resume``, SIGINT tears the pool down promptly and raises
:class:`~repro.resilience.errors.SweepInterrupted` with the flushed
partial results, and a seeded
:class:`~repro.resilience.faults.FaultPlan` can inject failures at every
seam for testing.

Observability: every sweep tallies into a
:class:`~repro.obs.metrics.MetricsRegistry` (wall time, cell timings,
cache traffic, ``sweep.failures``/``sweep.retries``/``sweep.timeouts``;
exposed as :attr:`SweepReport.registry` and via
:meth:`SweepReport.metrics_dict` for ``--metrics-json``), every executed
cell carries a :class:`~repro.obs.manifest.RunManifest` with its
provenance (failed cells carry the failure record in the manifest's
``error`` field), progress and heartbeat lines go through the structured
``repro.runner.sweep`` logger, and a ``probe_factory`` can attach a
per-reference :class:`~repro.obs.probe.ReferenceProbe` to each simulated
cell (probed sweeps run inline, since event streams cannot cross process
boundaries).

Distributed telemetry (see ``docs/observability.md``): registry snapshots
tallied *inside* worker subprocesses ride back on the executor's result
events and are folded into the sweep registry with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, so
:meth:`SweepReport.metrics_dict` reflects what workers actually did.  An
optional :class:`~repro.obs.telemetry.SpanRecorder` (``telemetry=``)
records the sweep's causal tree — ``sweep → cell → attempt → stage``
spans plus ``cache_hit``/``reprice``/``retry``/``timeout``/``fault``
markers — with worker-side spans joined across the process boundary via
:data:`~repro.obs.telemetry.SpanContext`.  On the heartbeat cadence
(``heartbeat_seconds``, env ``REPRO_HEARTBEAT_SECONDS``, ``0`` disables)
the loop also atomically publishes a status snapshot next to the journal
(or at ``status_path``) that the ``repro-coherence status`` verb renders
from a different process.  All of it is observer-only: counters stay
bit-identical with telemetry on, and with everything off the loop pays a
handful of ``is None`` checks.

Determinism contract: the outcome list is ordered exactly like the input
spec list regardless of worker scheduling, and each worker reconstructs its
trace from the spec's seed, so ``jobs=N`` produces bit-identical counters
to ``jobs=1``.  Only the metrics (timings, worker attribution) vary from
run to run, which is why :meth:`SweepReport.cell_table` excludes them and
the CLI routes them to stderr.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.comparison import ComparisonResult
from ..core.simulator import SimulationResult
from ..interconnect.bus import nonpipelined_bus, pipelined_bus
from ..obs.log import fields, get_logger
from ..obs.manifest import RunManifest, collect_manifest
from ..obs.metrics import MetricsRegistry
from ..obs.probe import ReferenceProbe
from ..obs.telemetry import SpanRecorder, write_status
from ..resilience.errors import CellFailure, RunError, SweepInterrupted
from ..resilience.executor import CellExecutor, run_attempt
from ..resilience.journal import JOURNAL_SUFFIX, SweepJournal
from ..resilience.retry import RetryPolicy
from .cache import ResultCache
from .spec import INFINITE_GEOMETRY, RunSpec

__all__ = ["RunOutcome", "SweepReport", "run_sweep"]

logger = get_logger("runner.sweep")

#: Hook called once per completed cell (cache hits in spec order first,
#: then simulated cells in completion order).
ProgressHook = Callable[["RunOutcome"], None]

#: Factory producing a per-cell probe for instrumented sweeps.
ProbeFactory = Callable[[RunSpec], Optional[ReferenceProbe]]

#: Default seconds between heartbeat lines / status snapshots while a sweep
#: runs; override per sweep with ``heartbeat_seconds`` (CLI
#: ``--heartbeat-seconds``) or process-wide with ``REPRO_HEARTBEAT_SECONDS``.
HEARTBEAT_SECONDS = 10.0

#: Environment override for the heartbeat cadence (``0`` disables).
HEARTBEAT_ENV = "REPRO_HEARTBEAT_SECONDS"

#: Suffix of the status-snapshot file auto-derived from the journal path.
STATUS_SUFFIX = ".status.json"


def _resolve_heartbeat(heartbeat_seconds: Optional[float]) -> float:
    """Explicit argument, else ``$REPRO_HEARTBEAT_SECONDS``, else the default.

    ``0`` disables periodic heartbeats (status snapshots are then written
    only at sweep start and end); negative values are rejected.
    """
    if heartbeat_seconds is None:
        raw = os.environ.get(HEARTBEAT_ENV)
        if raw is None:
            return HEARTBEAT_SECONDS
        try:
            heartbeat_seconds = float(raw)
        except ValueError:
            raise ValueError(
                f"{HEARTBEAT_ENV} must be a number, got {raw!r}"
            ) from None
    interval = float(heartbeat_seconds)
    if not 0 <= interval < math.inf:  # NaN would silently disable heartbeats
        raise ValueError(
            f"heartbeat interval must be finite and >= 0 (0 disables), "
            f"got {interval}"
        )
    return interval


@dataclass(frozen=True)
class RunOutcome:
    """One sweep cell: cache-served, executed, re-priced, or failed."""

    spec: RunSpec
    #: the simulated counters, or None when the cell failed
    result: Optional[SimulationResult]
    cached: bool
    #: simulation seconds (0.0 for cache hits)
    elapsed: float
    #: pid of the process that produced the result (or final failure)
    worker: int
    #: provenance of the execution (None when served from a pre-manifest cache)
    manifest: Optional[RunManifest] = None
    #: why the cell failed, across all attempts (None on success)
    error: Optional[RunError] = None
    #: True when the counters were simulated for a sibling cell differing
    #: only in characterization (same :meth:`RunSpec.base_cache_key`) —
    #: this cell paid for pricing, not for a simulation
    repriced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ValueError(
                "a RunOutcome carries exactly one of result or error"
            )


@dataclass(frozen=True)
class SweepReport:
    """Everything a sweep produced: results in spec order, plus metrics."""

    outcomes: Sequence[RunOutcome]
    wall_time: float
    jobs: int
    #: the sweep's metrics (wall/cell timers, cache counters); always set by
    #: :func:`run_sweep`, defaulted for hand-built reports in tests
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: traces this sweep generated (its share of ``sweep.trace_generations``;
    #: inline cells sharing a profile share one trace)
    trace_generations: int = 0

    # -- counts ----------------------------------------------------------------

    @property
    def cells(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> Tuple[RunOutcome, ...]:
        """Cells that produced a result (cache-served or simulated)."""
        return tuple(outcome for outcome in self.outcomes if outcome.ok)

    @property
    def failures(self) -> Tuple[RunOutcome, ...]:
        """Cells that exhausted their attempts without a result."""
        return tuple(outcome for outcome in self.outcomes if not outcome.ok)

    @property
    def simulations(self) -> int:
        """Cells actually simulated to completion this run.

        Excludes cache hits *and* re-priced cells — the paper's
        one-run-many-models method means k characterizations of one
        configuration count as one simulation here.
        """
        return sum(
            1
            for outcome in self.outcomes
            if outcome.ok and not outcome.cached and not outcome.repriced
        )

    @property
    def repricings(self) -> int:
        """Cells served by re-weighting another cell's counters."""
        return sum(1 for outcome in self.outcomes if outcome.repriced)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def cache_hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.cache_hits / len(self.outcomes)

    @property
    def total_references(self) -> int:
        return sum(outcome.result.references for outcome in self.successes)

    @property
    def simulated_references(self) -> int:
        return sum(
            outcome.result.references
            for outcome in self.successes
            if not outcome.cached and not outcome.repriced
        )

    @property
    def refs_per_sec(self) -> float:
        """Simulation throughput: freshly simulated references per wall second."""
        if self.wall_time <= 0:
            return 0.0
        return self.simulated_references / self.wall_time

    def worker_timings(self) -> Dict[int, Tuple[int, float]]:
        """Per-worker (cells simulated, simulation seconds), keyed by pid."""
        timings: Dict[int, Tuple[int, float]] = {}
        for outcome in self.outcomes:
            if outcome.cached or outcome.repriced or not outcome.ok:
                continue
            cells, seconds = timings.get(outcome.worker, (0, 0.0))
            timings[outcome.worker] = (cells + 1, seconds + outcome.elapsed)
        return timings

    # -- views -----------------------------------------------------------------

    def comparison(self) -> ComparisonResult:
        """The sweep's results as a protocol x trace comparison.

        Requires the grid to collapse onto those two axes: exactly one
        result per (protocol, trace) cell and a complete cross product —
        the shape every paper table and figure consumes.
        """
        if self.failures:
            failed = [outcome.spec.cell_id() for outcome in self.failures]
            raise ValueError(
                f"grid has {len(failed)} failed cells ({', '.join(failed)}); "
                "a comparison needs every cell's result — retry the failures "
                "(e.g. sweep --resume) first"
            )
        protocols: List[str] = []
        traces: List[str] = []
        results: Dict[str, Dict[str, SimulationResult]] = {}
        for outcome in self.outcomes:
            protocol, trace = outcome.spec.protocol, outcome.spec.trace
            if protocol not in results:
                protocols.append(protocol)
                results[protocol] = {}
            if trace not in traces:
                traces.append(trace)
            if trace in results[protocol]:
                raise ValueError(
                    f"grid has multiple results for ({protocol}, {trace}); "
                    "a comparison needs the sweep collapsed to one config "
                    "per (protocol, trace) cell"
                )
            results[protocol][trace] = outcome.result
        for protocol in protocols:
            missing = [t for t in traces if t not in results[protocol]]
            if missing:
                raise ValueError(
                    f"grid is not a full cross product: {protocol} lacks "
                    f"traces {missing}"
                )
        return ComparisonResult(
            protocols=tuple(protocols), traces=tuple(traces), results=results
        )

    def cell_table(self) -> str:
        """Deterministic per-cell summary (identical across jobs/cache runs)."""
        pipe, nonpipe = pipelined_bus(), nonpipelined_bus()
        header = (
            f"{'protocol':<13}{'trace':<7}{'block':>6}{'geometry':>10}"
            f"{'sharing':>10}{'refs':>10}"
            f"{'cyc/ref pipe':>14}{'cyc/ref nonp':>14}"
        )
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            spec, result = outcome.spec, outcome.result
            geometry = spec.geometry or INFINITE_GEOMETRY
            prefix = (
                f"{spec.protocol:<13}{spec.trace:<7}{spec.block_size:>6}"
                f"{geometry:>10}"
                f"{spec.sharing_model.value:>10}"
            )
            if outcome.ok:
                lines.append(
                    prefix
                    + f"{result.references:>10}"
                    f"{result.cycles_per_reference(pipe):>14.6f}"
                    f"{result.cycles_per_reference(nonpipe):>14.6f}"
                )
            else:
                lines.append(
                    prefix
                    + f"{'-':>10}{'FAILED':>14}{outcome.error.kind:>14}"
                )
        return "\n".join(lines)

    def pricing_table(self) -> str:
        """Per-cell pricing under each cell's own characterization.

        The characterization-axis companion to :meth:`cell_table`: one row
        per cell, priced by the cell's :meth:`~repro.runner.spec.RunSpec
        .bus_model` (pipelined default when the axis is unset), with the
        energy column shown for models that carry an ``[energy_nj]``
        section.  Deterministic across jobs/cache/re-pricing paths.
        """
        header = (
            f"{'protocol':<13}{'trace':<7}{'characterization':<24}"
            f"{'refs':>10}{'cyc/ref':>12}{'nJ/ref':>12}"
        )
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            spec = outcome.spec
            model = spec.characterization or "(default)"
            prefix = f"{spec.protocol:<13}{spec.trace:<7}{model:<24}"
            if not outcome.ok:
                lines.append(prefix + f"{'-':>10}{'FAILED':>12}{'-':>12}")
                continue
            summary = outcome.result.cost_summary(spec.bus_model())
            energy = summary.energy_per_reference
            lines.append(
                prefix
                + f"{outcome.result.references:>10}"
                f"{summary.cycles_per_reference:>12.6f}"
                + (f"{energy:>12.4f}" if energy is not None else f"{'-':>12}")
            )
        return "\n".join(lines)

    def failure_table(self) -> str:
        """Deterministic failure summary: cell, kind, attempts, error."""
        failures = self.failures
        if not failures:
            return "no failures"
        header = f"{'cell':<44}{'kind':<14}{'attempts':>9}  error"
        lines = [header, "-" * len(header)]
        for outcome in failures:
            error = outcome.error
            description = f"{error.exc_type}: {error.message}"
            if len(description) > 72:
                description = description[:69] + "..."
            lines.append(
                f"{outcome.spec.cell_id():<44}{error.kind:<14}"
                f"{error.attempts:>9}  {description}"
            )
        return "\n".join(lines)

    def render_metrics(self) -> str:
        """Human-readable throughput / cache metrics (non-deterministic)."""
        repriced = (
            f"{self.repricings} repriced, " if self.repricings else ""
        )
        lines = [
            f"sweep: {self.cells} cells ({self.simulations} simulated, "
            f"{repriced}"
            f"{self.cache_hits} cached, {len(self.failures)} failed) "
            f"in {self.wall_time:.2f}s wall, jobs={self.jobs}",
            f"refs: {self.total_references:,} total, "
            f"{self.simulated_references:,} simulated, "
            f"{self.refs_per_sec:,.0f} refs/sec, "
            f"{self.trace_generations} traces generated",
            f"cache: {self.cache_hits} hits, "
            f"{self.cache_hit_rate:.1%} hit rate",
        ]
        for worker, (cells, seconds) in sorted(self.worker_timings().items()):
            lines.append(
                f"worker {worker}: {cells} cells, {seconds:.2f}s simulation"
            )
        return "\n".join(lines)

    def metrics_dict(self) -> Dict[str, object]:
        """The sweep's metrics as JSON-able data (``--metrics-json``)."""
        return {
            "cells": self.cells,
            "simulated": self.simulations,
            "repriced": self.repricings,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "failures": [
                {"cell": outcome.spec.cell_id(), **outcome.error.to_dict()}
                for outcome in self.failures
            ],
            "jobs": self.jobs,
            "wall_s": self.wall_time,
            "total_references": self.total_references,
            "simulated_references": self.simulated_references,
            "refs_per_sec": self.refs_per_sec,
            "trace_generations": self.trace_generations,
            "workers": {
                str(pid): {"cells": cells, "simulation_s": seconds}
                for pid, (cells, seconds) in sorted(self.worker_timings().items())
            },
            "registry": self.registry.as_dict(),
        }


def run_sweep(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressHook] = None,
    probe_factory: Optional[ProbeFactory] = None,
    registry: Optional[MetricsRegistry] = None,
    retry: Union[int, RetryPolicy] = 0,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    max_failures: Optional[int] = None,
    faults=None,
    journal: Optional[SweepJournal] = None,
    resume: bool = False,
    telemetry: Optional[SpanRecorder] = None,
    heartbeat_seconds: Optional[float] = None,
    status_path: Optional[Union[str, Path]] = None,
) -> SweepReport:
    """Execute a sweep grid, optionally in parallel and through a cache.

    Cache lookups happen up front in the parent; only misses are dispatched
    to workers, and their results (plus run manifests) are written back to
    the cache by the parent (one writer, no cross-process races on fresh
    entries).  The ``progress`` hook fires once per cell — cache hits in
    spec order first, then executed cells as they complete.
    ``probe_factory``, when given, produces a per-reference probe for every
    simulated cell and forces inline execution (probes cannot stream across
    processes).  ``registry`` collects the sweep's metrics; a fresh one is
    created when omitted and either way it rides on the returned report.

    Resilience knobs:

    * ``retry`` — extra attempts per failed cell: an int, or a full
      :class:`RetryPolicy` to control backoff.  Backoff jitter is hashed
      from the cell's cache key, never wall-clock random.
    * ``cell_timeout`` — per-cell wall-clock budget in seconds; overruns
      are SIGKILLed and count as a (retryable) ``timeout`` failure.
      Enforcing it requires a child process, so it applies even at
      ``jobs=1`` (probed sweeps excepted).
    * ``keep_going`` / ``max_failures`` — with ``keep_going=False`` (the
      default) the first cell to exhaust its attempts raises
      :class:`CellFailure`; with ``keep_going=True`` failures become
      outcomes in :attr:`SweepReport.failures` until more than
      ``max_failures`` of them accumulate.
    * ``journal`` / ``resume`` — a :class:`SweepJournal` records every
      outcome as it lands; ``resume=True`` additionally reports what a
      prior journal already covered (journaled successes are served from
      the cache, so only failed/missing cells re-simulate).
    * ``faults`` — a :class:`~repro.resilience.faults.FaultPlan` for
      deterministic fault injection (tests and CI soak runs).

    Telemetry knobs (all observer-only; counters are bit-identical with
    them on or off):

    * ``telemetry`` — a :class:`~repro.obs.telemetry.SpanRecorder` that
      collects the sweep's span tree, including worker-side spans shipped
      back over the result pipe.  ``None`` (the default) records nothing.
    * ``heartbeat_seconds`` — seconds between heartbeat log lines and
      status snapshots; defaults to ``REPRO_HEARTBEAT_SECONDS`` or
      :data:`HEARTBEAT_SECONDS`, and ``0`` disables the cadence.
    * ``status_path`` — where to publish the atomic status snapshot; when
      omitted it is derived from the journal path
      (``<sweep-key>.status.json``), and with neither no snapshot is
      written.  Snapshot write failures are logged and disable further
      snapshots; they never fail the sweep.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("at least one RunSpec is required")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cell_timeout is not None and not 0 < cell_timeout < math.inf:
        raise ValueError(
            f"cell_timeout must be positive and finite, got {cell_timeout}"
        )
    if max_failures is not None and max_failures < 0:
        raise ValueError(f"max_failures must be >= 0, got {max_failures}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")
    policy = retry if isinstance(retry, RetryPolicy) else RetryPolicy(int(retry))
    registry = registry if registry is not None else MetricsRegistry()
    beat_every = _resolve_heartbeat(heartbeat_seconds)
    probed = probe_factory is not None
    if probed and jobs > 1:
        logger.warning(
            "probed sweeps run inline; ignoring --jobs",
            extra=fields(jobs=jobs),
        )
    if probed and cell_timeout is not None:
        logger.warning(
            "probed sweeps run inline; cell timeouts are not enforced",
            extra=fields(cell_timeout=cell_timeout),
        )
    needs_processes = not probed and (
        cell_timeout is not None
        or (faults is not None and faults.has_worker_kills)
    )
    use_executor = not probed and (jobs > 1 or needs_processes)

    keys = [spec.cache_key() for spec in specs]
    base_keys = [spec.base_cache_key() for spec in specs]
    cell_ids = [spec.cell_id() for spec in specs]
    register = getattr(cache, "register_cell", None)
    if register is not None:
        for key, cell in zip(keys, cell_ids):
            register(key, cell)

    journaled_ok: set = set()
    if resume:
        prior = journal.load()
        journaled_ok = {
            key for key, record in prior.items() if record.get("status") == "ok"
        }
        logger.info(
            "resuming sweep from journal",
            extra=fields(
                journal=str(journal.path),
                journaled_ok=len(journaled_ok & set(keys)),
                journaled_failed=sum(
                    1 for r in prior.values() if r.get("status") == "failed"
                ),
                cells=len(specs),
            ),
        )
    if journal is not None:
        journal.record_start(len(specs), jobs)

    sweep_id = SweepJournal.sweep_key(keys)
    status_file: Optional[Path] = (
        Path(status_path) if status_path is not None else None
    )
    if status_file is None and journal is not None:
        stem = journal.path.name
        if stem.endswith(JOURNAL_SUFFIX):
            stem = stem[: -len(JOURNAL_SUFFIX)]
        status_file = journal.path.with_name(f"{stem}{STATUS_SUFFIX}")

    wall = registry.timer("sweep.wall_seconds")
    wall_before = wall.total_seconds
    generations_before = registry.counter_value("sweep.trace_generations")
    registry.gauge("sweep.jobs").set(jobs)
    registry.counter("sweep.cells").inc(len(specs))
    logger.info(
        "sweep started",
        extra=fields(
            cells=len(specs), jobs=jobs, cache=cache is not None,
            probed=probed, retries=policy.retries,
            cell_timeout=cell_timeout, keep_going=keep_going,
            resume=resume, faults=faults is not None,
        ),
    )

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    pending: List[int] = []
    #: leader index -> pending cells sharing its base_cache_key, which will
    #: be served by re-pricing the leader's counters (Section 4.1: event
    #: frequencies are independent of hardware costs)
    followers: Dict[int, List[int]] = {}
    done = 0
    failed_cells = 0
    sweep_started = time.perf_counter()
    last_beat = sweep_started
    executor: Optional[CellExecutor] = None
    status_healthy = True
    cell_spans: Dict[int, object] = {}
    sweep_span = (
        telemetry.begin(
            f"sweep {sweep_id[:12]}", kind="sweep",
            sweep_id=sweep_id, cells=len(specs), jobs=jobs,
        )
        if telemetry is not None
        else None
    )

    def _publish_status(state: str) -> None:
        """Atomically refresh the status snapshot; degrade on any OSError."""
        nonlocal status_healthy
        if status_file is None or not status_healthy:
            return
        finished = [o for o in outcomes if o is not None]
        ok = sum(1 for o in finished if o.ok)
        simulated_refs = sum(
            o.result.references
            for o in finished
            if o.ok and not o.cached and not o.repriced
        )
        running = executor.in_flight if executor is not None else 0
        elapsed = time.perf_counter() - sweep_started
        cell_hist = registry.histogram("sweep.cell_seconds")
        remaining = max(0, len(specs) - done)
        eta = (
            remaining * cell_hist.mean / max(1, jobs)
            if state == "running" and cell_hist.count and remaining
            else None
        )
        try:
            write_status(
                status_file,
                {
                    "state": state,
                    "ts": time.time(),
                    "pid": os.getpid(),
                    "sweep_id": sweep_id,
                    "cells": len(specs),
                    "done": done,
                    "ok": ok,
                    "failed": len(finished) - ok,
                    "running": running,
                    "pending": max(0, len(specs) - done - running),
                    "simulated": registry.counter("sweep.simulated").value,
                    "cache_hits": registry.counter("sweep.cache_hits").value,
                    "repriced": registry.counter("sweep.repriced").value,
                    "retries": registry.counter("sweep.retries").value,
                    "timeouts": registry.counter("sweep.timeouts").value,
                    "references": sum(
                        o.result.references for o in finished if o.ok
                    ),
                    "refs_per_sec": (
                        simulated_refs / elapsed if elapsed > 0 else 0.0
                    ),
                    "eta_s": eta,
                    "wall_s": elapsed,
                    "jobs": jobs,
                    "journal": str(journal.path) if journal is not None else None,
                },
            )
        except OSError as exc:
            status_healthy = False
            logger.warning(
                "status snapshot write failed; disabling snapshots",
                extra=fields(path=str(status_file), error=str(exc)),
            )

    def _begin_cell_span(index: int):
        """The cell's open span, created on first use (telemetry only)."""
        span = cell_spans.get(index)
        if span is None and telemetry is not None:
            span = telemetry.begin(
                cell_ids[index], kind="cell", parent=sweep_span, tid=index + 1,
            )
            cell_spans[index] = span
        return span

    def _end_cell_span(index: int, **attributes: object) -> None:
        span = cell_spans.pop(index, None)
        if span is not None:
            span.end(**attributes)

    def _span_context(index: int):
        """What a worker needs to hang its spans under this cell's span."""
        if telemetry is None:
            return None
        return (telemetry.trace_id, _begin_cell_span(index).span_id)

    def _close_telemetry(state: str) -> None:
        """End every open span (interrupt/failure leaves cells open)."""
        if telemetry is None:
            return
        for index in list(cell_spans):
            _end_cell_span(index, status=state)
        if sweep_span is not None:
            sweep_span.end(status=state)

    def _heartbeat() -> None:
        nonlocal last_beat
        if beat_every <= 0:
            return
        now = time.perf_counter()
        if now - last_beat >= beat_every:
            last_beat = now
            finished = [o for o in outcomes if o is not None]
            logger.info(
                "sweep progress",
                extra=fields(
                    done=done,
                    total=len(specs),
                    simulated=registry.counter("sweep.simulated").value,
                    failed=sum(1 for o in finished if not o.ok),
                    references=sum(
                        o.result.references for o in finished if o.ok
                    ),
                ),
            )
            _publish_status("running")

    def _journal_cell(
        index: int,
        status: str,
        cached: bool = False,
        attempts: int = 1,
        elapsed: float = 0.0,
        error: Optional[RunError] = None,
    ) -> None:
        if journal is not None:
            journal.record_cell(
                keys[index], cell_ids[index], status,
                cached=cached, attempts=attempts, elapsed=elapsed, error=error,
            )

    def _reprice(index: int, result: SimulationResult, worker: int) -> None:
        """Serve a pending cell from a sibling's freshly simulated counters."""
        nonlocal done
        manifest = collect_manifest(
            specs[index].as_dict(), keys[index], 0.0, worker_pid=worker
        )
        outcome = RunOutcome(
            spec=specs[index],
            result=result,
            cached=False,
            elapsed=0.0,
            worker=worker,
            manifest=manifest,
            repriced=True,
        )
        outcomes[index] = outcome
        done += 1
        registry.counter("sweep.repriced").inc()
        if telemetry is not None:
            telemetry.event(
                cell_ids[index], kind="reprice", parent=sweep_span,
                tid=index + 1, worker=worker,
            )
        if cache is not None:
            cache.put(keys[index], result, manifest=manifest)
        _journal_cell(index, "ok")
        if progress is not None:
            progress(outcome)

    def _complete(
        index: int,
        payload: Tuple[SimulationResult, float, int, RunManifest],
        attempt: int = 1,
    ) -> None:
        nonlocal done
        result, elapsed, worker, manifest = payload
        outcome = RunOutcome(
            spec=specs[index],
            result=result,
            cached=False,
            elapsed=elapsed,
            worker=worker,
            manifest=manifest,
        )
        outcomes[index] = outcome
        done += 1
        registry.counter("sweep.simulated").inc()
        registry.histogram("sweep.cell_seconds").observe(elapsed)
        if cache is not None:
            cache.put(keys[index], result, manifest=manifest)
            if base_keys[index] != keys[index]:
                # Also store under the characterization-free identity, so a
                # future sweep with a brand-new characterization file can
                # re-price this simulation instead of re-running it.
                cache.put(base_keys[index], result, manifest=manifest)
        _journal_cell(index, "ok", attempts=attempt, elapsed=elapsed)
        # The cell span closes after the cell's own writes, so they count
        # in its time.
        _end_cell_span(
            index, status="ok", attempts=attempt, elapsed_s=elapsed,
            worker=worker,
        )
        logger.debug(
            "cell simulated",
            extra=fields(
                protocol=specs[index].protocol,
                trace=specs[index].trace,
                elapsed_s=round(elapsed, 4),
                worker=worker,
                attempt=attempt,
            ),
        )
        if progress is not None:
            progress(outcome)
        for follower in followers.get(index, ()):
            _reprice(follower, result, worker)
        _heartbeat()
        if faults is not None and faults.should_interrupt(
            cell_ids[index], attempt
        ):
            raise KeyboardInterrupt  # injected SIGINT (fault harness)

    def _fail_one(index: int, error: RunError, elapsed: float) -> None:
        nonlocal done, failed_cells
        spec = specs[index]
        manifest = collect_manifest(
            spec.as_dict(), keys[index], elapsed,
            worker_pid=error.worker, error=error.to_dict(),
        )
        outcome = RunOutcome(
            spec=spec,
            result=None,
            cached=False,
            elapsed=elapsed,
            worker=error.worker,
            manifest=manifest,
            error=error,
        )
        outcomes[index] = outcome
        done += 1
        failed_cells += 1
        registry.counter("sweep.failures").inc()
        _journal_cell(
            index, "failed",
            attempts=error.attempts, elapsed=elapsed, error=error,
        )
        _end_cell_span(
            index, status="failed", kind=error.kind, attempts=error.attempts,
        )
        logger.error(
            "cell failed",
            extra=fields(
                cell=cell_ids[index], kind=error.kind,
                error=f"{error.exc_type}: {error.message}",
                attempts=error.attempts, worker=error.worker,
            ),
        )
        if progress is not None:
            progress(outcome)

    def _fail(index: int, error: RunError) -> None:
        _fail_one(index, error, error.elapsed)
        # Cells waiting to be re-priced from this simulation fail with it.
        for follower in followers.get(index, ()):
            _fail_one(follower, error, 0.0)
        _heartbeat()
        if not keep_going:
            raise CellFailure(cell_ids[index], error)
        if max_failures is not None and failed_cells > max_failures:
            raise CellFailure(
                cell_ids[index], error,
                reason=f"more than max_failures={max_failures} cells failed",
            )

    def _retry_or_fail(
        index: int,
        attempt: int,
        kind: str,
        exc_type: str,
        message: str,
        trace_back: Optional[str],
        worker: int,
        elapsed: float,
    ) -> Optional[float]:
        """Backoff seconds when a retry is granted; None after recording failure."""
        if kind == "timeout":
            registry.counter("sweep.timeouts").inc()
        if telemetry is not None:
            marker_parent = cell_spans.get(index) or sweep_span
            if kind == "timeout":
                telemetry.event(
                    cell_ids[index], kind="timeout", parent=marker_parent,
                    tid=index + 1, attempt=attempt, elapsed_s=elapsed,
                )
            if exc_type == "InjectedFault":
                telemetry.event(
                    cell_ids[index], kind="fault", parent=marker_parent,
                    tid=index + 1, attempt=attempt,
                )
        if attempt < policy.max_attempts:
            registry.counter("sweep.retries").inc()
            delay = policy.delay(keys[index], attempt)
            if telemetry is not None:
                telemetry.event(
                    cell_ids[index], kind="retry",
                    parent=cell_spans.get(index) or sweep_span,
                    tid=index + 1, attempt=attempt, backoff_s=delay,
                    failure=kind,
                )
            logger.warning(
                "cell attempt failed; retrying",
                extra=fields(
                    cell=cell_ids[index], kind=kind, attempt=attempt,
                    max_attempts=policy.max_attempts,
                    backoff_s=round(delay, 3),
                    error=f"{exc_type}: {message}",
                ),
            )
            return delay
        _fail(
            index,
            RunError(
                kind=kind, exc_type=exc_type, message=message,
                attempts=attempt, worker=worker, elapsed=elapsed,
                traceback=trace_back,
            ),
        )
        return None

    def _scan_cache() -> None:
        nonlocal done
        for index, spec in enumerate(specs):
            cached_result = cache.get(keys[index]) if cache is not None else None
            via_base = False
            if (
                cached_result is None
                and cache is not None
                and base_keys[index] != keys[index]
            ):
                # Re-pricing across sweeps: the exact pricing is cold, but
                # the characterization-free simulation is warm — serve it
                # (the counters are identical by construction) and write it
                # back under the full key so next time is a direct hit.
                cached_result = cache.get(base_keys[index])
                via_base = cached_result is not None
            if cached_result is not None:
                if via_base:
                    manifest = collect_manifest(
                        spec.as_dict(), keys[index], 0.0
                    )
                    cache.put(keys[index], cached_result, manifest=manifest)
                    registry.counter("sweep.repriced").inc()
                else:
                    manifest = cache.get_manifest(keys[index])
                outcome = RunOutcome(
                    spec=spec,
                    result=cached_result,
                    cached=True,
                    elapsed=0.0,
                    worker=os.getpid(),
                    manifest=manifest,
                    repriced=via_base,
                )
                outcomes[index] = outcome
                done += 1
                registry.counter("sweep.cache_hits").inc()
                if telemetry is not None:
                    telemetry.event(
                        cell_ids[index], kind="cache_hit", parent=sweep_span,
                        tid=index + 1, via_base=via_base,
                    )
                _journal_cell(index, "ok", cached=True)
                if progress is not None:
                    progress(outcome)
                _heartbeat()
            else:
                if resume and keys[index] in journaled_ok:
                    logger.warning(
                        "journaled success missing from cache; re-simulating",
                        extra=fields(cell=cell_ids[index]),
                    )
                pending.append(index)

    def _group_repricing() -> None:
        """Collapse pending cells sharing a simulation onto one leader.

        Cells whose specs differ only in ``characterization`` share a
        :meth:`~repro.runner.spec.RunSpec.base_cache_key` and, by the
        paper's Section 4.1 argument, identical counters — so only the
        first (the leader) simulates and the rest are re-priced from its
        result.  Probed sweeps skip this: a probe streams the cell's own
        per-reference events, so every cell must actually run.
        """
        if probed:
            return
        leaders: Dict[str, int] = {}
        kept: List[int] = []
        for index in pending:
            leader = leaders.get(base_keys[index])
            if leader is None:
                leaders[base_keys[index]] = index
                kept.append(index)
            else:
                followers.setdefault(leader, []).append(index)
        if followers:
            pending[:] = kept
            logger.info(
                "re-pricing collapsed sweep cells",
                extra=fields(
                    simulate=len(kept),
                    repriced=sum(len(cells) for cells in followers.values()),
                ),
            )

    def _run_inline() -> None:
        # One trace per distinct profile: the first pending cell that needs
        # it generates it, later ones (and retries) share it, and it is
        # dropped after its last pending cell.
        profiles = {index: specs[index].profile() for index in pending}
        users = Counter(profiles.values())
        traces: Dict[object, object] = {}
        for index in pending:
            profile = profiles[index]
            attempt = 1
            cell_span = _begin_cell_span(index)
            while True:
                known = len(traces)
                message = run_attempt(
                    specs[index], attempt, faults, telemetry, cell_span,
                    tid=index + 1,
                    probe=probe_factory(specs[index]) if probed else None,
                    allow_kill=False,
                    traces=traces,
                )
                if len(traces) > known:
                    registry.counter("sweep.trace_generations").inc()
                if message[0] == "ok":
                    _complete(index, message[1:], attempt)
                    break
                # (exc_type, message, traceback, pid, elapsed)
                delay = _retry_or_fail(index, attempt, "exception", *message[1:])
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
            users[profile] -= 1
            if not users[profile]:
                traces.pop(profile, None)

    def _run_executor() -> None:
        nonlocal executor
        pool_size = max(1, min(jobs, len(pending)))
        executor = CellExecutor(
            jobs=pool_size, timeout=cell_timeout, faults=faults
        )
        for index in pending:
            executor.submit(
                index, specs[index], attempt=1,
                span_context=_span_context(index),
            )
        while executor.active:
            for event in executor.poll():
                # Worker-side telemetry rides on every event, success or
                # failure — a retried attempt's metrics/spans still count.
                if event.metrics:
                    registry.merge_snapshot(event.metrics)
                if telemetry is not None and event.spans:
                    telemetry.ingest(event.spans)
                if event.ok:
                    _complete(event.index, event.payload, event.attempt)
                else:
                    delay = _retry_or_fail(
                        event.index, event.attempt, event.kind,
                        event.exc_type, event.message, event.traceback,
                        event.worker, event.elapsed,
                    )
                    if delay is not None:
                        executor.submit(
                            event.index, specs[event.index],
                            event.attempt + 1, delay,
                            span_context=_span_context(event.index),
                        )
            _heartbeat()

    def _generations() -> int:
        return registry.counter_value("sweep.trace_generations") - (
            generations_before
        )

    def _finished_counts() -> Tuple[int, int]:
        finished = [o for o in outcomes if o is not None]
        ok = sum(1 for o in finished if o.ok)
        return ok, len(finished) - ok

    try:
        _publish_status("running")
        with wall.time():
            _scan_cache()
            _group_repricing()
            if pending:
                if use_executor:
                    _run_executor()
                else:
                    _run_inline()
    except KeyboardInterrupt:
        if executor is not None:
            executor.abort()
        _close_telemetry("interrupted")
        ok, failed = _finished_counts()
        if journal is not None:
            journal.record_end("interrupted", ok, failed)
        _publish_status("interrupted")
        partial = SweepReport(
            outcomes=tuple(o for o in outcomes if o is not None),
            wall_time=wall.total_seconds - wall_before,
            jobs=jobs,
            registry=registry,
            trace_generations=_generations(),
        )
        logger.warning(
            "sweep interrupted; completed cells are flushed",
            extra=fields(completed=ok + failed, total=len(specs)),
        )
        raise SweepInterrupted(partial, len(specs)) from None
    except CellFailure:
        if executor is not None:
            executor.abort()
        _close_telemetry("failed")
        ok, failed = _finished_counts()
        if journal is not None:
            journal.record_end("failed", ok, failed)
        _publish_status("failed")
        raise

    wall_time = wall.total_seconds - wall_before
    _close_telemetry("finished")
    report = SweepReport(
        outcomes=tuple(outcomes),
        wall_time=wall_time,
        jobs=jobs,
        registry=registry,
        trace_generations=_generations(),
    )
    if journal is not None:
        journal.record_end(
            "finished", len(report.successes), len(report.failures)
        )
    registry.gauge("sweep.refs_per_sec").set(report.refs_per_sec)
    _publish_status("finished")
    logger.info(
        "sweep finished",
        extra=fields(
            cells=report.cells,
            simulated=report.simulations,
            cache_hits=report.cache_hits,
            failures=len(report.failures),
            wall_s=round(wall_time, 3),
            refs_per_sec=round(report.refs_per_sec),
        ),
    )
    return report
