"""Processor-count scaling: the paper's explicit future work.

"An accurate evaluation of the tradeoffs will require traces from a much
larger number of processors" (Section 6) — the ATUM apparatus was limited
to four CPUs.  The synthetic workload engine has no such limit, so this
module re-runs the key Section 6 questions at 4, 8, 16, ... processors:

* does the Figure 1 property (most invalidations touch at most one cache)
  survive as the machine grows?
* how fast does DiriB's broadcast rate grow with processors for fixed i?
* how much miss rate does DiriNB's copy cap cost at scale?

The workload model holds per-process behaviour constant and adds processes
(each brings its own private/instruction regions, mailbox, and a share of
lock contention), which is the natural weak-scaling reading of the paper's
applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.invalidation import InvalidationHistogram
from ..core.comparison import run_comparison
from ..interconnect.bus import BusCostModel, BusOp
from ..protocols.base import CoherenceProtocol
from ..protocols.directory.dir0b import Dir0B
from ..protocols.directory.dirib import DiriB
from ..protocols.directory.dirinb import DiriNB
from ..trace.synthetic import SyntheticWorkload, WorkloadProfile, dataclass_replace
from ._defaults import _default_bus

__all__ = [
    "ScalingPoint",
    "scale_profile_to_processors",
    "fanout_scaling",
    "dirib_broadcast_scaling",
    "dirinb_miss_scaling",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One machine size in a processor-count sweep."""

    n_processors: int
    cycles_per_reference: float
    data_miss_rate: float
    share_at_most_one_invalidation: float
    mean_invalidation_fanout: float
    broadcasts_per_thousand_refs: float

    def render(self) -> str:
        return (
            f"n={self.n_processors:<3} {self.cycles_per_reference:.4f} cyc/ref, "
            f"miss {self.data_miss_rate:.2f}%, "
            f"P(inval<=1) {100 * self.share_at_most_one_invalidation:.1f}%, "
            f"mean fanout {self.mean_invalidation_fanout:.2f}, "
            f"bcast {self.broadcasts_per_thousand_refs:.2f}/kref"
        )


def scale_profile_to_processors(
    profile: WorkloadProfile, n_processors: int
) -> WorkloadProfile:
    """Weak-scale a workload profile to ``n_processors`` processes.

    Per-process behaviour (activity mix, working-set size per process) is
    held constant; the trace grows proportionally so every process
    contributes the same number of references as in the base profile.
    """
    if n_processors <= 0:
        raise ValueError("n_processors must be positive")
    factor = n_processors / profile.processes
    return dataclass_replace(
        profile,
        processes=n_processors,
        processors=n_processors,
        length=max(1, int(profile.length * factor)),
    )


#: Comparison key of the one scheme a scaling sweep runs per machine size.
_SCHEME = "scheme"


def _sweep(
    base_profile: WorkloadProfile,
    processor_counts: Sequence[int],
    make_protocol: Callable[[int], CoherenceProtocol],
    bus: BusCostModel,
) -> List[ScalingPoint]:
    points = []
    for n in processor_counts:
        profile = scale_profile_to_processors(base_profile, n)
        trace_name = f"{profile.name}@{n}"
        result = run_comparison(
            (_SCHEME,),
            {trace_name: SyntheticWorkload(profile).records},
            n,
            protocol_factory=lambda name, caches: make_protocol(caches),
        ).result(_SCHEME, trace_name)
        histogram: InvalidationHistogram = result.invalidation_histogram
        points.append(
            ScalingPoint(
                n_processors=n,
                cycles_per_reference=result.cycles_per_reference(bus),
                data_miss_rate=result.frequencies().data_miss_rate,
                share_at_most_one_invalidation=histogram.share_at_most(1),
                mean_invalidation_fanout=histogram.mean_fanout,
                broadcasts_per_thousand_refs=1000.0
                * result.counters.ops.rate(BusOp.BROADCAST_INVALIDATE),
            )
        )
    return points


def fanout_scaling(
    base_profile: WorkloadProfile,
    processor_counts: Sequence[int] = (4, 8, 16),
    bus: Optional[BusCostModel] = None,
) -> List[ScalingPoint]:
    """Does Figure 1's small-fan-out property survive larger machines?

    Runs Dir0B (whose invalidation events define the Figure 1 population)
    at each machine size.
    """
    return _sweep(
        base_profile, processor_counts, Dir0B, _default_bus(bus)
    )


def dirib_broadcast_scaling(
    base_profile: WorkloadProfile,
    pointers: int,
    processor_counts: Sequence[int] = (4, 8, 16),
    bus: Optional[BusCostModel] = None,
) -> List[ScalingPoint]:
    """Broadcast frequency of DiriB(i) as the machine grows."""
    return _sweep(
        base_profile,
        processor_counts,
        lambda n: DiriB(n, pointers=pointers),
        _default_bus(bus),
    )


def dirinb_miss_scaling(
    base_profile: WorkloadProfile,
    pointers: int,
    processor_counts: Sequence[int] = (4, 8, 16),
    bus: Optional[BusCostModel] = None,
) -> List[ScalingPoint]:
    """Extra misses from DiriNB(i)'s copy cap as the machine grows."""
    return _sweep(
        base_profile,
        processor_counts,
        lambda n: DiriNB(n, pointers=pointers),
        _default_bus(bus),
    )
