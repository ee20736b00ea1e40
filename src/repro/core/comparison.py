"""Multi-protocol, multi-trace comparison runner.

The paper's evaluation is a cross product: every scheme simulated over every
trace, averaged across traces (Tables 4 and 5, Figures 2-5).  This module
runs that cross product once and exposes the results in both per-trace and
trace-averaged form; the analysis layer turns them into the paper's tables
and figures.

Averaging convention: the paper reports event frequencies and bus cycles
"averaged across the three traces".  Rates are averaged with equal weight
per trace (not pooled by reference count), matching the paper's
presentation; both views are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence

from ..interconnect.bus import BusCostModel, Table5Category
from ..protocols.registry import PAPER_CORE_SCHEMES, create_protocol
from ..trace.record import TraceRecord
from ..trace.stream import SharingModel
from ..trace.workloads import DEFAULT_SCALE
from .invalidation import InvalidationHistogram
from .simulator import SimulationResult, simulate

__all__ = ["ComparisonResult", "run_comparison", "run_standard_comparison"]

#: A callable producing a fresh trace stream each time it is called (so one
#: trace can be replayed for every protocol without materialising it).
TraceFactory = Callable[[], Iterable[TraceRecord]]


@dataclass(frozen=True)
class ComparisonResult:
    """All (protocol, trace) simulation results of one comparison."""

    protocols: Sequence[str]
    traces: Sequence[str]
    results: Mapping[str, Mapping[str, SimulationResult]]  # protocol -> trace

    def result(self, protocol: str, trace: str) -> SimulationResult:
        return self.results[protocol][trace]

    def per_trace_cycles(
        self, protocol: str, bus: BusCostModel
    ) -> Dict[str, float]:
        """Bus cycles per reference for each trace (Figure 3 series)."""
        return {
            trace: self.results[protocol][trace].cycles_per_reference(bus)
            for trace in self.traces
        }

    def average_cycles(self, protocol: str, bus: BusCostModel) -> float:
        """Trace-averaged bus cycles per reference (Figure 2 bars)."""
        per_trace = self.per_trace_cycles(protocol, bus)
        return sum(per_trace.values()) / len(per_trace)

    def average_energy(self, protocol: str, bus: BusCostModel) -> Optional[float]:
        """Trace-averaged nanojoules per reference, ``None`` without an
        energy axis on ``bus``."""
        values = [
            self.results[protocol][trace]
            .cost_summary(bus)
            .energy_per_reference
            for trace in self.traces
        ]
        if any(value is None for value in values):
            return None
        return sum(values) / len(values)

    def average_category_cycles(
        self, protocol: str, bus: BusCostModel
    ) -> Dict[Table5Category, float]:
        """Trace-averaged Table 5 breakdown for one scheme."""
        totals: Dict[Table5Category, float] = {c: 0.0 for c in Table5Category}
        for trace in self.traces:
            summary = self.results[protocol][trace].cost_summary(bus)
            for category, cycles in summary.by_category.items():
                totals[category] += cycles
        n = len(self.traces)
        return {category: cycles / n for category, cycles in totals.items()}

    def average_transactions_per_reference(self, protocol: str) -> float:
        """Trace-averaged bus transactions per reference (Section 5.1's q
        coefficient)."""
        values = [
            self.results[protocol][trace].counters.ops.transactions_per_reference
            for trace in self.traces
        ]
        return sum(values) / len(values)

    def average_cycles_per_transaction(
        self, protocol: str, bus: BusCostModel
    ) -> float:
        """Trace-averaged bus cycles per bus transaction (Figure 5 bars)."""
        values = [
            self.results[protocol][trace].cost_summary(bus).cycles_per_transaction
            for trace in self.traces
        ]
        return sum(values) / len(values)

    def average_event_percent(self, protocol: str, key: str) -> float:
        """Trace-averaged Table 4 row value (by the paper's row label)."""
        values = [
            self.results[protocol][trace].frequencies().as_dict()[key]
            for trace in self.traces
        ]
        return sum(values) / len(values)

    def pooled_invalidation_histogram(self, protocol: str) -> InvalidationHistogram:
        """Figure 1 histogram pooled over all traces."""
        pooled = InvalidationHistogram()
        for trace in self.traces:
            pooled.merge(self.results[protocol][trace].invalidation_histogram)
        return pooled


def run_comparison(
    protocol_names: Sequence[str],
    trace_factories: Mapping[str, TraceFactory],
    n_caches: int,
    sharing_model: SharingModel = SharingModel.PROCESS,
    block_size: int = 16,
    protocol_factory: Optional[Callable[[str, int], object]] = None,
) -> ComparisonResult:
    """Simulate every named protocol over every named trace."""
    if not protocol_names:
        raise ValueError("at least one protocol is required")
    if not trace_factories:
        raise ValueError("at least one trace is required")
    make = protocol_factory or create_protocol
    results: Dict[str, Dict[str, SimulationResult]] = {}
    for protocol_name in protocol_names:
        per_trace: Dict[str, SimulationResult] = {}
        for trace_name, factory in trace_factories.items():
            protocol = make(protocol_name, n_caches)
            per_trace[trace_name] = simulate(
                protocol,
                factory(),
                trace_name=trace_name,
                block_size=block_size,
                sharing_model=sharing_model,
            )
        results[protocol_name] = per_trace
    return ComparisonResult(
        protocols=tuple(protocol_names),
        traces=tuple(trace_factories),
        results=results,
    )


def run_standard_comparison(
    protocol_names: Sequence[str] = PAPER_CORE_SCHEMES,
    scale: float = DEFAULT_SCALE,
    n_caches: int = 4,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> ComparisonResult:
    """The paper's evaluation: the named schemes over POPS, THOR and PERO.

    The grid runs through :func:`~repro.runner.sweep.run_sweep`: ``jobs``
    fans the (protocol, trace) cells across worker processes (``jobs=1``
    runs them inline) and ``cache_dir`` serves repeat cells from the
    on-disk result cache; results are bit-identical either way.
    """
    from ..runner.cache import ResultCache
    from ..runner.spec import sweep_grid
    from ..runner.sweep import run_sweep

    specs = sweep_grid(protocol_names, scale=scale, n_caches=n_caches)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return run_sweep(specs, jobs=jobs, cache=cache).comparison()
