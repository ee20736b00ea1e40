"""The parallel sweep engine: fan RunSpecs across workers, merge results.

One sweep executes a grid of :class:`~repro.runner.spec.RunSpec`s —
consulting the optional :class:`~repro.runner.cache.ResultCache` first,
running the misses inline (``jobs == 1``) or one process per attempt
through :class:`~repro.resilience.executor.CellExecutor` — and returns a
:class:`SweepReport` carrying every result plus the throughput and cache
metrics.

Each cell moves through named states: a cache hit, a re-pricing of
cached or freshly simulated counters (the paper's Section 4.1 method:
cells differing only in ``characterization`` share one simulation), a
simulation, or a failure after its retries.  One transition step records
every move: the outcome, the per-sweep count and ``sweep.*`` counter, the
cache write, the journal line, the span or marker, the log and
``progress``.  See "Cell states" in ``docs/runner.md``; resilience is in
``docs/robustness.md``, telemetry and status snapshots in
``docs/observability.md``.

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
from ..resilience.executor import CellEvent, CellExecutor, run_attempt
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
    return _Sweep(
        specs, jobs, cache, progress, probe_factory, registry, retry,
        cell_timeout, keep_going, max_failures, faults, journal, resume,
        telemetry, heartbeat_seconds, status_path,
    ).run()


#: A cell's states (``docs/runner.md``, "Cell states").  The cache scan
#: moves each ``pending`` cell to ``hit`` (its own key), ``repriced`` (its
#: base key), ``leader`` (it simulates) or ``follower`` (its leader's
#: counters price it).  A leader ends ``simulated`` or ``failed``, a
#: follower ``repriced`` or ``failed``.
PENDING, LEADER, FOLLOWER = "pending", "leader", "follower"
HIT, REPRICED, SIMULATED, FAILED = "hit", "repriced", "simulated", "failed"

#: The registry counter behind each per-sweep count.
_COUNTERS = {
    "cache_hits": "sweep.cache_hits",
    REPRICED: "sweep.repriced",
    SIMULATED: "sweep.simulated",
    FAILED: "sweep.failures",
    "retries": "sweep.retries",
    "timeouts": "sweep.timeouts",
}


class _Sweep:
    """One :func:`run_sweep` call: its cells, their states and their records.

    :meth:`_settle` is the one transition into a final state and the only
    code that stores an outcome; inline attempts and executor events both
    reach it through :meth:`_on_event`, and :meth:`_end` is the one exit.
    """

    def __init__(
        self, specs, jobs, cache, progress, probe_factory, registry, retry,
        cell_timeout, keep_going, max_failures, faults, journal, resume,
        telemetry, heartbeat_seconds, status_path,
    ) -> None:
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
        self.specs, self.jobs, self.cache = specs, jobs, cache
        self.progress, self.probe_factory = progress, probe_factory
        self.cell_timeout, self.faults, self.journal = cell_timeout, faults, journal
        self.keep_going, self.max_failures = keep_going, max_failures
        self.telemetry = telemetry
        self.policy = policy = (
            retry if isinstance(retry, RetryPolicy) else RetryPolicy(int(retry))
        )
        self.registry = registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.beat_every = _resolve_heartbeat(heartbeat_seconds)
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
        self.probed = probed
        self.use_executor = not probed and (jobs > 1 or needs_processes)

        self.keys = keys = [spec.cache_key() for spec in specs]
        self.base_keys = [spec.base_cache_key() for spec in specs]
        self.cell_ids = [spec.cell_id() for spec in specs]
        register = getattr(cache, "register_cell", None)
        if register is not None:
            for key, cell in zip(keys, self.cell_ids):
                register(key, cell)

        self.journaled_ok: set = set()
        if resume:
            prior = journal.load()
            self.journaled_ok = {
                key for key, record in prior.items()
                if record.get("status") == "ok"
            }
            logger.info(
                "resuming sweep from journal",
                extra=fields(
                    journal=str(journal.path),
                    journaled_ok=len(self.journaled_ok & set(keys)),
                    journaled_failed=sum(
                        1 for r in prior.values() if r.get("status") == "failed"
                    ),
                    cells=len(specs),
                ),
            )
        if journal is not None:
            journal.record_start(len(specs), jobs)

        self.sweep_id = SweepJournal.sweep_key(keys)
        self.status_file: Optional[Path] = (
            Path(status_path) if status_path is not None else None
        )
        if self.status_file is None and journal is not None:
            stem = journal.path.name
            if stem.endswith(JOURNAL_SUFFIX):
                stem = stem[: -len(JOURNAL_SUFFIX)]
            self.status_file = journal.path.with_name(f"{stem}{STATUS_SUFFIX}")
        self.status_healthy = True

        self.wall = registry.timer("sweep.wall_seconds")
        self.wall_before = self.wall.total_seconds
        self.generations_before = registry.counter_value(
            "sweep.trace_generations"
        )
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

        self.states: List[str] = [PENDING] * len(specs)
        self.outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        #: leader index -> the followers its counters price (Section 4.1:
        #: event frequencies are independent of hardware costs)
        self.followers: Dict[int, List[int]] = {}
        #: this sweep's count behind each registry counter of _COUNTERS
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self.done = 0
        self.references = self.simulated_refs = 0
        self.simulated_seconds = 0.0
        self.started = self.last_beat = time.perf_counter()
        self.executor: Optional[CellExecutor] = None
        self.cell_spans: Dict[int, object] = {}
        self.sweep_span = (
            telemetry.begin(
                f"sweep {self.sweep_id[:12]}", kind="sweep",
                sweep_id=self.sweep_id, cells=len(specs), jobs=jobs,
            )
            if telemetry is not None
            else None
        )

    # -- the sweep ---------------------------------------------------------

    def run(self) -> SweepReport:
        try:
            self._publish_status("running")
            with self.wall.time():
                leaders = self._group(self._scan_cache())
                if leaders and self.use_executor:
                    self._run_executor(leaders)
                elif leaders:
                    self._run_inline(leaders)
        except KeyboardInterrupt:
            partial = self._end("interrupted")
            logger.warning(
                "sweep interrupted; completed cells are flushed",
                extra=fields(completed=self.done, total=len(self.specs)),
            )
            raise SweepInterrupted(partial, len(self.specs)) from None
        except CellFailure:
            self._end("failed")
            raise
        report = self._end("finished")
        logger.info(
            "sweep finished",
            extra=fields(
                cells=report.cells,
                simulated=report.simulations,
                cache_hits=report.cache_hits,
                failures=len(report.failures),
                wall_s=round(report.wall_time, 3),
                refs_per_sec=round(report.refs_per_sec),
            ),
        )
        return report

    def _scan_cache(self) -> List[int]:
        """Settle every cell the cache holds; return the rest, in spec order."""
        cache, keys, base_keys = self.cache, self.keys, self.base_keys
        pid = os.getpid()
        pending: List[int] = []
        for index, spec in enumerate(self.specs):
            result = cache.get(keys[index]) if cache is not None else None
            if result is not None:
                self._settle(index, HIT, RunOutcome(
                    spec=spec, result=result, cached=True, elapsed=0.0,
                    worker=pid, manifest=cache.get_manifest(keys[index]),
                ))
                continue
            if cache is not None and base_keys[index] != keys[index]:
                # Re-pricing across sweeps: the exact pricing is cold, but
                # the characterization-free simulation is warm — serve it
                # (the counters are identical by construction) and write it
                # back under the full key so next time is a direct hit.
                result = cache.get(base_keys[index])
                if result is not None:
                    self._settle(
                        index, REPRICED,
                        self._repriced(index, result, pid, cached=True),
                    )
                    continue
            if keys[index] in self.journaled_ok:
                logger.warning(
                    "journaled success missing from cache; re-simulating",
                    extra=fields(cell=self.cell_ids[index]),
                )
            pending.append(index)
        return pending

    def _group(self, pending: List[int]) -> List[int]:
        """Make each pending cell a leader or a follower; return the leaders.

        Cells whose specs differ only in ``characterization`` share a
        :meth:`~repro.runner.spec.RunSpec.base_cache_key` and, by the
        paper's Section 4.1 argument, identical counters — so only the
        first (the leader) simulates and the rest are re-priced from its
        result.  In a probed sweep every pending cell leads: a probe
        streams the cell's own per-reference events, so every cell must
        actually run.
        """
        first: Dict[object, int] = {}
        for index in pending:
            leader = first.setdefault(
                index if self.probed else self.base_keys[index], index
            )
            if leader == index:
                self.states[index] = LEADER
            else:
                self.states[index] = FOLLOWER
                self.followers.setdefault(leader, []).append(index)
        leaders = [index for index in pending if self.states[index] == LEADER]
        if self.followers:
            logger.info(
                "re-pricing collapsed sweep cells",
                extra=fields(
                    simulate=len(leaders),
                    repriced=len(pending) - len(leaders),
                ),
            )
        return leaders

    def _run_inline(self, leaders: List[int]) -> None:
        # One trace per distinct profile: the first leader that needs it
        # generates it, later ones (and retries) share it, and it is
        # dropped after its last leader.
        specs = self.specs
        profiles = {index: specs[index].profile() for index in leaders}
        users = Counter(profiles.values())
        traces: Dict[object, object] = {}
        for index in leaders:
            spec, profile = specs[index], profiles[index]
            attempt = 1
            cell_span = self._cell_span(index)
            while True:
                known = len(traces)
                message = run_attempt(
                    spec, attempt, self.faults, self.telemetry, cell_span,
                    tid=index + 1,
                    probe=self.probe_factory(spec) if self.probed else None,
                    allow_kill=False,
                    traces=traces,
                )
                if len(traces) > known:
                    self.registry.counter("sweep.trace_generations").inc()
                delay = self._on_event(
                    CellEvent.from_message(index, spec, attempt, message)
                )
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
            users[profile] -= 1
            if not users[profile]:
                traces.pop(profile, None)

    def _run_executor(self, leaders: List[int]) -> None:
        executor = self.executor = CellExecutor(
            jobs=max(1, min(self.jobs, len(leaders))),
            timeout=self.cell_timeout, faults=self.faults,
        )
        for index in leaders:
            executor.submit(
                index, self.specs[index], attempt=1,
                span_context=self._span_context(index),
            )
        while executor.active:
            for event in executor.poll():
                delay = self._on_event(event)
                if delay is not None:
                    executor.submit(
                        event.index, self.specs[event.index],
                        event.attempt + 1, delay,
                        span_context=self._span_context(event.index),
                    )
            self._heartbeat()

    # -- one result handler, one transition, one end -----------------------

    def _on_event(self, event: CellEvent) -> Optional[float]:
        """Take one finished attempt, inline or from a worker.

        Folds the worker's telemetry in (every event carries it, success
        or failure), then settles the cell or grants a retry.  Returns the
        backoff before the next attempt, or None once the cell settled.
        """
        if event.metrics:
            self.registry.merge_snapshot(event.metrics)
        if self.telemetry is not None and event.spans:
            self.telemetry.ingest(event.spans)
        index, attempt, kind = event.index, event.attempt, event.kind
        cell = self.cell_ids[index]
        if event.ok:
            result, elapsed, worker, manifest = event.payload
            self._settle(index, SIMULATED, RunOutcome(
                spec=self.specs[index], result=result, cached=False,
                elapsed=elapsed, worker=worker, manifest=manifest,
            ), attempt)
            if self.faults is not None and self.faults.should_interrupt(
                cell, attempt
            ):
                raise KeyboardInterrupt  # injected SIGINT (fault harness)
            return None
        if kind == "timeout":
            self._count("timeouts")
        telemetry = self.telemetry
        if telemetry is not None:
            marker_parent = self.cell_spans.get(index) or self.sweep_span
            if kind == "timeout":
                telemetry.event(
                    cell, kind="timeout", parent=marker_parent,
                    tid=index + 1, attempt=attempt, elapsed_s=event.elapsed,
                )
            if event.exc_type == "InjectedFault":
                telemetry.event(
                    cell, kind="fault", parent=marker_parent,
                    tid=index + 1, attempt=attempt,
                )
        if attempt < self.policy.max_attempts:
            self._count("retries")
            delay = self.policy.delay(self.keys[index], attempt)
            if telemetry is not None:
                telemetry.event(
                    cell, kind="retry",
                    parent=self.cell_spans.get(index) or self.sweep_span,
                    tid=index + 1, attempt=attempt, backoff_s=delay,
                    failure=kind,
                )
            logger.warning(
                "cell attempt failed; retrying",
                extra=fields(
                    cell=cell, kind=kind, attempt=attempt,
                    max_attempts=self.policy.max_attempts,
                    backoff_s=round(delay, 3),
                    error=f"{event.exc_type}: {event.message}",
                ),
            )
            return delay
        error = RunError(
            kind=kind, exc_type=event.exc_type, message=event.message,
            attempts=attempt, worker=event.worker, elapsed=event.elapsed,
            traceback=event.traceback,
        )
        self._settle(
            index, FAILED, self._failed(index, error, error.elapsed), attempt
        )
        if not self.keep_going:
            raise CellFailure(cell, error)
        if self.max_failures is not None and (
            self.counts[FAILED] > self.max_failures
        ):
            raise CellFailure(
                cell, error,
                reason=f"more than max_failures={self.max_failures} cells failed",
            )
        return None

    def _settle(
        self, index: int, state: str, outcome: RunOutcome, attempts: int = 1
    ) -> None:
        """Move cell ``index`` into the final ``state``: the one transition.

        The only code that stores an outcome.  It records the move, in
        order: the per-sweep count and its ``sweep.*`` counter, the cache
        write, the journal line, the marker or the end of the cell span,
        the log, ``progress``.  A leader's followers settle with it; then
        the heartbeat runs.
        """
        origin = self.states[index]
        if origin not in (PENDING, LEADER, FOLLOWER):
            raise RuntimeError(f"cell {self.cell_ids[index]} settled twice")
        self.states[index] = state
        self.outcomes[index] = outcome
        self.done += 1
        if outcome.cached:
            self._count("cache_hits")
        if state != HIT:
            self._count(state)
        result, error, elapsed = outcome.result, outcome.error, outcome.elapsed
        cache, key = self.cache, self.keys[index]
        if result is not None:
            self.references += result.references
            if cache is not None and state != HIT:
                cache.put(key, result, manifest=outcome.manifest)
        if state == SIMULATED:
            self.simulated_refs += result.references
            self.simulated_seconds += elapsed
            self.registry.histogram("sweep.cell_seconds").observe(elapsed)
            if cache is not None and self.base_keys[index] != key:
                # Also store under the characterization-free identity, so a
                # future sweep with a brand-new characterization file can
                # re-price this simulation instead of re-running it.
                cache.put(self.base_keys[index], result, manifest=outcome.manifest)
        cell = self.cell_ids[index]
        if self.journal is not None:
            self.journal.record_cell(
                key, cell, "ok" if error is None else "failed",
                cached=outcome.cached, attempts=attempts, elapsed=elapsed,
                error=error,
            )
        # The cell span closes after the cell's own writes, so they count
        # in its time.
        if state == SIMULATED:
            self._end_cell_span(
                index, status="ok", attempts=attempts, elapsed_s=elapsed,
                worker=outcome.worker,
            )
            logger.debug(
                "cell simulated",
                extra=fields(
                    protocol=outcome.spec.protocol,
                    trace=outcome.spec.trace,
                    elapsed_s=round(elapsed, 4),
                    worker=outcome.worker,
                    attempt=attempts,
                ),
            )
        elif state == FAILED:
            self._end_cell_span(
                index, status="failed", kind=error.kind, attempts=attempts,
            )
            logger.error(
                "cell failed",
                extra=fields(
                    cell=cell, kind=error.kind,
                    error=f"{error.exc_type}: {error.message}",
                    attempts=attempts, worker=error.worker,
                ),
            )
        elif self.telemetry is not None and outcome.cached:
            self.telemetry.event(
                cell, kind="cache_hit", parent=self.sweep_span,
                tid=index + 1, via_base=outcome.repriced,
            )
        elif self.telemetry is not None:
            self.telemetry.event(
                cell, kind="reprice", parent=self.sweep_span,
                tid=index + 1, worker=outcome.worker,
            )
        if self.progress is not None:
            self.progress(outcome)
        for follower in self.followers.get(index, ()):
            if error is None:
                self._settle(
                    follower, REPRICED,
                    self._repriced(follower, result, outcome.worker),
                )
            else:
                # Cells waiting to be re-priced from this simulation fail
                # with it.
                self._settle(
                    follower, FAILED, self._failed(follower, error, 0.0),
                    attempts,
                )
        if origin != FOLLOWER:
            self._heartbeat()

    def _end(self, state: str) -> SweepReport:
        """The one exit, ``state`` being finished, failed or interrupted.

        Stops the executor, ends every open span, journals the end and
        publishes the last status snapshot; returns the report of every
        cell that settled.
        """
        if self.executor is not None:
            self.executor.abort()
        if self.telemetry is not None:
            for index in list(self.cell_spans):
                self._end_cell_span(index, status=state)
            self.sweep_span.end(status=state)
        report = SweepReport(
            outcomes=tuple(o for o in self.outcomes if o is not None),
            wall_time=self.wall.total_seconds - self.wall_before,
            jobs=self.jobs,
            registry=self.registry,
            trace_generations=self.registry.counter_value(
                "sweep.trace_generations"
            ) - self.generations_before,
        )
        failed = self.counts[FAILED]
        if self.journal is not None:
            self.journal.record_end(state, self.done - failed, failed)
        if state == "finished":
            self.registry.gauge("sweep.refs_per_sec").set(report.refs_per_sec)
        self._publish_status(state)
        return report

    # -- what the transitions share ------------------------------------------

    def _count(self, name: str) -> None:
        self.counts[name] += 1
        self.registry.counter(_COUNTERS[name]).inc()

    def _repriced(
        self, index: int, result: SimulationResult, worker: int,
        cached: bool = False,
    ) -> RunOutcome:
        """Cell ``index`` priced from another pricing's counters."""
        spec = self.specs[index]
        return RunOutcome(
            spec=spec, result=result, cached=cached, elapsed=0.0,
            worker=worker, repriced=True,
            manifest=collect_manifest(
                spec.as_dict(), self.keys[index], 0.0, worker_pid=worker
            ),
        )

    def _failed(self, index: int, error: RunError, elapsed: float) -> RunOutcome:
        spec = self.specs[index]
        return RunOutcome(
            spec=spec, result=None, cached=False, elapsed=elapsed,
            worker=error.worker, error=error,
            manifest=collect_manifest(
                spec.as_dict(), self.keys[index], elapsed,
                worker_pid=error.worker, error=error.to_dict(),
            ),
        )

    def _cell_span(self, index: int):
        """The cell's open span, created on first use (telemetry only)."""
        span = self.cell_spans.get(index)
        if span is None and self.telemetry is not None:
            span = self.cell_spans[index] = self.telemetry.begin(
                self.cell_ids[index], kind="cell", parent=self.sweep_span,
                tid=index + 1,
            )
        return span

    def _end_cell_span(self, index: int, **attributes: object) -> None:
        span = self.cell_spans.pop(index, None)
        if span is not None:
            span.end(**attributes)

    def _span_context(self, index: int):
        """What a worker needs to hang its spans under this cell's span."""
        if self.telemetry is None:
            return None
        return (self.telemetry.trace_id, self._cell_span(index).span_id)

    def _heartbeat(self) -> None:
        if self.beat_every <= 0:
            return
        now = time.perf_counter()
        if now - self.last_beat >= self.beat_every:
            self.last_beat = now
            logger.info(
                "sweep progress",
                extra=fields(
                    done=self.done,
                    total=len(self.specs),
                    simulated=self.counts[SIMULATED],
                    failed=self.counts[FAILED],
                    references=self.references,
                ),
            )
            self._publish_status("running")

    def _publish_status(self, state: str) -> None:
        """Atomically refresh the status snapshot; degrade on any OSError.

        Every count is this sweep's own, even when the registry is shared.
        """
        if self.status_file is None or not self.status_healthy:
            return
        counts, cells, done = self.counts, len(self.specs), self.done
        running = self.executor.in_flight if self.executor is not None else 0
        elapsed = time.perf_counter() - self.started
        simulated = counts[SIMULATED]
        eta = (
            (cells - done) * self.simulated_seconds / simulated
            / max(1, self.jobs)
            if state == "running" and simulated and cells > done
            else None
        )
        try:
            write_status(
                self.status_file,
                {
                    "state": state,
                    "ts": time.time(),
                    "pid": os.getpid(),
                    "sweep_id": self.sweep_id,
                    "cells": cells,
                    "done": done,
                    "ok": done - counts[FAILED],
                    "failed": counts[FAILED],
                    "running": running,
                    "pending": max(0, cells - done - running),
                    "simulated": simulated,
                    "cache_hits": counts["cache_hits"],
                    "repriced": counts[REPRICED],
                    "retries": counts["retries"],
                    "timeouts": counts["timeouts"],
                    "references": self.references,
                    "refs_per_sec": (
                        self.simulated_refs / elapsed if elapsed > 0 else 0.0
                    ),
                    "eta_s": eta,
                    "wall_s": elapsed,
                    "jobs": self.jobs,
                    "journal": (
                        str(self.journal.path)
                        if self.journal is not None else None
                    ),
                },
            )
        except OSError as exc:
            self.status_healthy = False
            logger.warning(
                "status snapshot write failed; disabling snapshots",
                extra=fields(path=str(self.status_file), error=str(exc)),
            )
