"""Section 6: directory scheme alternatives for scalability.

Four analyses from the paper's Section 6:

1. **Sequential invalidation** — DirnNB (directed messages) vs Dir0B
   (broadcast): the paper measures 0.0499 vs 0.0491 cycles/reference, a
   negligible difference because most invalidation situations involve at
   most one remote copy.
2. **Broadcast-cost model** — Dir1B keeps one pointer plus a broadcast bit;
   its cost is linear in the broadcast price ``b``:
   ``cycles(b) = intercept + slope·b`` (paper: 0.0485 + 0.0006·b).
   :func:`broadcast_cost_line` extracts the line from a simulation.
3. **Pointer sweeps** — DiriB trades broadcast frequency against pointer
   storage; DiriNB avoids broadcasts entirely at the price of extra misses
   from pointer displacement.  Both are swept over ``i``.
4. **Directory storage** — bits per main-memory block for each organisation
   as the machine grows (full map grows linearly with caches; the paper's
   digit code needs only ``2·log2 n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.comparison import run_comparison
from ..core.simulator import SimulationResult
from ..interconnect.bus import BusCostModel, BusOp
from ..protocols.directory.coarse import DirCoarse
from ..protocols.directory.dir0b import Dir0B
from ..protocols.directory.dir1nb import Dir1NB
from ..protocols.directory.dirib import DiriB
from ..protocols.directory.dirinb import DiriNB
from ..protocols.directory.dirnnb import DirnNB
from ..trace.record import TraceRecord
from ._defaults import _default_bus

__all__ = [
    "BroadcastCostLine",
    "broadcast_cost_line",
    "PointerSweepPoint",
    "sweep_dirib",
    "sweep_dirinb",
    "directory_storage_bits",
]

TraceFactory = Callable[[], Iterable[TraceRecord]]


@dataclass(frozen=True)
class BroadcastCostLine:
    """``cycles(b) = intercept + slope·b`` for a broadcast-bit scheme."""

    scheme: str
    intercept: float
    slope: float

    def at(self, b: float) -> float:
        if b < 0:
            raise ValueError(f"broadcast cost b must be non-negative, got {b}")
        return self.intercept + self.slope * b

    def render(self) -> str:
        return (
            f"{self.scheme}: {self.intercept:.4f} + {self.slope:.4f}*b "
            "cycles/ref"
        )


def broadcast_cost_line(
    result: SimulationResult, bus: Optional[BusCostModel] = None
) -> BroadcastCostLine:
    """Extract the Section 6 linear model from one simulation result.

    The slope is the measured broadcast rate (broadcasts per reference); the
    intercept is the cost with broadcasts priced at zero.
    """
    bus = _default_bus(bus)
    free_broadcasts = bus.with_broadcast_cost(0.0)
    intercept = result.cycles_per_reference(free_broadcasts)
    slope = result.counters.ops.rate(BusOp.BROADCAST_INVALIDATE)
    return BroadcastCostLine(
        scheme=result.protocol_label, intercept=intercept, slope=slope
    )


@dataclass(frozen=True)
class PointerSweepPoint:
    """One configuration in a DiriB / DiriNB pointer sweep (trace average)."""

    scheme: str
    pointers: int
    cycles_per_reference: float
    data_miss_rate: float  # percent of references, first refs excluded
    broadcasts_per_thousand_refs: float
    displacements_per_thousand_refs: float
    directory_bits_per_block: int

    def render(self) -> str:
        return (
            f"{self.scheme:<8} i={self.pointers}: "
            f"{self.cycles_per_reference:.4f} cyc/ref, "
            f"miss {self.data_miss_rate:.2f}%, "
            f"bcast {self.broadcasts_per_thousand_refs:.2f}/kref, "
            f"displaced {self.displacements_per_thousand_refs:.2f}/kref, "
            f"{self.directory_bits_per_block} dir bits/blk"
        )


def _average_over_traces(
    scheme: str,
    make_protocol: Callable[[int], object],
    trace_factories: Mapping[str, TraceFactory],
    n_caches: int,
    bus: BusCostModel,
):
    """Run one protocol config over all traces; return averaged measures."""
    built: List[object] = []  # kept to read DiriNB's displacements afterwards

    def keep(name: str, caches: int) -> object:
        built.append(make_protocol(caches))
        return built[-1]

    comparison = run_comparison(
        (scheme,), trace_factories, n_caches, protocol_factory=keep
    )
    results = [comparison.result(scheme, name) for name in comparison.traces]
    n = len(results)
    return (
        sum(r.cycles_per_reference(bus) for r in results) / n,
        sum(r.frequencies().data_miss_rate for r in results) / n,
        sum(
            1000.0 * r.counters.ops.rate(BusOp.BROADCAST_INVALIDATE)
            for r in results
        )
        / n,
        sum(
            1000.0 * getattr(protocol, "displacements", 0) / r.references
            for protocol, r in zip(built, results)
        )
        / n,
    )


def sweep_dirib(
    trace_factories: Mapping[str, TraceFactory],
    pointer_counts: Sequence[int] = (1, 2, 4),
    n_caches: int = 4,
    bus: Optional[BusCostModel] = None,
) -> List[PointerSweepPoint]:
    """Sweep DiriB over pointer counts (broadcast frequency falls with i)."""
    bus = _default_bus(bus)
    points = []
    for pointers in pointer_counts:
        cycles, miss, broadcasts, _ = _average_over_traces(
            "DiriB",
            lambda caches, pointers=pointers: DiriB(caches, pointers=pointers),
            trace_factories,
            n_caches,
            bus,
        )
        points.append(
            PointerSweepPoint(
                scheme="DiriB",
                pointers=pointers,
                cycles_per_reference=cycles,
                data_miss_rate=miss,
                broadcasts_per_thousand_refs=broadcasts,
                displacements_per_thousand_refs=0.0,
                directory_bits_per_block=DiriB.directory_bits_per_block(
                    n_caches, pointers
                ),
            )
        )
    return points


def sweep_dirinb(
    trace_factories: Mapping[str, TraceFactory],
    pointer_counts: Sequence[int] = (1, 2, 4),
    n_caches: int = 4,
    bus: Optional[BusCostModel] = None,
    eviction: str = "fifo",
) -> List[PointerSweepPoint]:
    """Sweep DiriNB over pointer counts (miss rate falls as i grows)."""
    bus = _default_bus(bus)
    points = []
    for pointers in pointer_counts:
        cycles, miss, _, displaced = _average_over_traces(
            "DiriNB",
            lambda caches, pointers=pointers: DiriNB(
                caches, pointers=pointers, eviction=eviction
            ),
            trace_factories,
            n_caches,
            bus,
        )
        points.append(
            PointerSweepPoint(
                scheme="DiriNB",
                pointers=pointers,
                cycles_per_reference=cycles,
                data_miss_rate=miss,
                broadcasts_per_thousand_refs=0.0,
                displacements_per_thousand_refs=displaced,
                directory_bits_per_block=DiriNB.directory_bits_per_block(
                    n_caches, pointers
                ),
            )
        )
    return points


def directory_storage_bits(
    cache_counts: Sequence[int] = (4, 16, 64, 256, 1024),
) -> Dict[str, Dict[int, int]]:
    """Directory bits per main-memory block vs machine size (Section 6).

    The full map (DirnNB) grows linearly with the number of caches, the
    pointer schemes logarithmically, the digit code as 2·log2 n, and Dir0B
    not at all.

    Raises:
        ValueError: if a cache count is below 1.
    """
    for n in cache_counts:
        if n < 1:
            raise ValueError(f"cache counts must be at least 1, got {n}")
    schemes = {
        "Dir1NB": Dir1NB.directory_bits_per_block,
        "DirnNB (full map)": DirnNB.directory_bits_per_block,
        "Dir0B": Dir0B.directory_bits_per_block,
        "Dir1B": lambda n: DiriB.directory_bits_per_block(n, pointers=1),
        "Dir4B": lambda n: DiriB.directory_bits_per_block(n, pointers=4),
        "Dir4NB": lambda n: DiriNB.directory_bits_per_block(n, pointers=4),
        "Digit code (coarse)": DirCoarse.directory_bits_per_block,
    }
    return {
        name: {n: bits(n) for n in cache_counts}
        for name, bits in schemes.items()
    }
