"""Pipeline profiler: where does a simulation's wall time actually go?

:func:`profile_spec` runs one sweep cell with every pipeline stage wrapped
in a wall-time :class:`~repro.obs.metrics.Timer` — trace generation, the
geometry stage, the protocol transition, and counter accounting — and
returns a :class:`ProfileReport` with per-stage seconds, per-reference
nanoseconds, and overall throughput (the ``repro-coherence profile`` CLI
verb renders it as a table).

The instrumentation wraps the pipeline's existing seams (the trace
iterator, the :class:`~repro.core.pipeline.SetAssociativeLRU` hooks, the
protocol access callable, and :meth:`SimulationCounters.record`) rather
than duplicating the feed loop, so the profiled run produces bit-identical
counters to an unprofiled one; the timer calls themselves slow the run
several-fold, which the report surfaces as the residual "pipeline overhead"
row.  Profile runs are therefore for *attributing* time, never for
absolute throughput numbers — the plain benchmark suite measures those.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional

from ..core.counters import SimulationCounters
from ..core.pipeline import ReferencePipeline, SetAssociativeLRU, SimulationResult
from ..trace.record import TraceRecord
from .metrics import MetricsRegistry, Timer

if TYPE_CHECKING:  # typing only: keeps obs importable before repro.runner
    from ..runner.spec import RunSpec

__all__ = ["ProfileReport", "STAGES", "profile_spec"]

#: Stage keys, in pipeline order.
STAGE_TRACE = "trace-generation"
STAGE_GEOMETRY = "geometry-stage"
STAGE_PROTOCOL = "protocol-transition"
STAGE_COUNTERS = "counter-accounting"
STAGES = (STAGE_TRACE, STAGE_GEOMETRY, STAGE_PROTOCOL, STAGE_COUNTERS)

#: Residual row: feed-loop dispatch plus the profiler's own timer calls.
STAGE_OTHER = "other (loop + probes)"


def _timed_records(
    records: Iterable[TraceRecord], timer: Timer
) -> Iterator[TraceRecord]:
    """Yield ``records``, charging generator time to ``timer``."""
    iterator = iter(records)
    add = timer.add
    while True:
        start = perf_counter()
        try:
            record = next(iterator)
        except StopIteration:
            add(perf_counter() - start)
            return
        add(perf_counter() - start)
        yield record


class _TimedStage:
    """Charge an inner geometry stage's hook time to a timer."""

    def __init__(self, inner: SetAssociativeLRU, timer: Timer) -> None:
        self._inner = inner
        self._timer = timer

    def before_access(
        self, unit: int, block: int, counters: SimulationCounters
    ) -> None:
        start = perf_counter()
        self._inner.before_access(unit, block, counters)
        self._timer.add(perf_counter() - start)

    def after_access(self, unit: int, block: int) -> None:
        start = perf_counter()
        self._inner.after_access(unit, block)
        self._timer.add(perf_counter() - start)


class _TimedCounters(SimulationCounters):
    """Charge :meth:`record` time to a timer."""

    __slots__ = ("_timer",)

    def __init__(self, timer: Timer) -> None:
        super().__init__()
        self._timer = timer

    def record(self, outcome) -> None:
        start = perf_counter()
        super().record(outcome)
        self._timer.add(perf_counter() - start)


@dataclass(frozen=True)
class ProfileReport:
    """Per-stage wall-time breakdown of one profiled simulation cell."""

    spec: "RunSpec"
    result: SimulationResult
    #: seconds per stage, keyed by the :data:`STAGES` names
    stages: Dict[str, float]
    wall_seconds: float

    @property
    def references(self) -> int:
        return self.result.references

    @property
    def refs_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.references / self.wall_seconds

    @property
    def other_seconds(self) -> float:
        """Wall time not attributed to a stage (loop + profiling overhead)."""
        return max(0.0, self.wall_seconds - sum(self.stages.values()))

    def render(self) -> str:
        """The per-stage timing table the ``profile`` CLI verb prints."""
        geometry = self.spec.geometry or "inf"
        refs = self.references
        header = f"{'stage':<24}{'seconds':>10}{'% wall':>9}{'ns/ref':>10}"
        lines = [
            f"Pipeline profile: {self.spec.protocol} / {self.spec.trace} "
            f"(geometry {geometry}, {refs:,} refs)",
            header,
            "-" * len(header),
        ]

        def row(name: str, seconds: float) -> str:
            share = 100.0 * seconds / self.wall_seconds if self.wall_seconds else 0.0
            ns = 1e9 * seconds / refs if refs else 0.0
            return f"{name:<24}{seconds:>10.4f}{share:>8.1f}%{ns:>10.0f}"

        for stage in STAGES:
            lines.append(row(stage, self.stages.get(stage, 0.0)))
        lines.append(row(STAGE_OTHER, self.other_seconds))
        lines.append(row("total", self.wall_seconds))
        lines.append(f"throughput: {self.refs_per_sec:,.0f} refs/sec (profiled)")
        return "\n".join(lines)


def profile_spec(
    spec: "RunSpec", registry: Optional[MetricsRegistry] = None
) -> ProfileReport:
    """Run ``spec`` once with per-stage timing instrumentation.

    When a ``registry`` is given, the stage timers live in it under
    ``profile.<stage>`` (plus ``profile.wall``), so several profiled cells
    accumulate into one exportable snapshot.
    """
    registry = registry if registry is not None else MetricsRegistry()
    timers = {stage: registry.timer(f"profile.{stage}") for stage in STAGES}
    # Shared-registry timers accumulate across profiled cells; report deltas.
    before = {stage: timer.total_seconds for stage, timer in timers.items()}

    protocol = spec.build_protocol()
    geometry = spec.build_geometry()
    pipeline = ReferencePipeline(
        protocol,
        geometry=geometry,
        block_size=spec.block_size,
        sharing_model=spec.sharing_model,
    )
    if pipeline._stage is not None:
        pipeline._stage = _TimedStage(pipeline._stage, timers[STAGE_GEOMETRY])
    inner_access = pipeline._access
    protocol_timer = timers[STAGE_PROTOCOL]

    def timed_access(unit, access, block):
        start = perf_counter()
        outcome = inner_access(unit, access, block)
        protocol_timer.add(perf_counter() - start)
        return outcome

    pipeline._access = timed_access

    counters = _TimedCounters(timers[STAGE_COUNTERS])
    wall = registry.timer("profile.wall")
    wall_before = wall.total_seconds
    with wall.time():
        # Generation is eager; iterating the result builds each record.
        with timers[STAGE_TRACE].time():
            trace = spec.build_trace()
        pipeline.feed(_timed_records(trace, timers[STAGE_TRACE]), counters)
    result = pipeline.result(spec.trace, counters)

    return ProfileReport(
        spec=spec,
        result=result,
        stages={
            stage: timers[stage].total_seconds - before[stage]
            for stage in STAGES
        },
        wall_seconds=wall.total_seconds - wall_before,
    )
