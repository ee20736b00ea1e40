"""The reference pipeline: one engine behind every simulation mode.

The paper's methodology is a single conceptual pipeline — an interleaved
trace feeds per-cache state, the protocol transitions on each reference,
and the bus operations it emits are tallied for later pricing.  This module
is that pipeline, composable and reused verbatim by every execution mode:

* **infinite caches** (the paper's Section 4 methodology) — the geometry
  stage is a passthrough;
* **finite caches** (the Section 4 "finite cache size" first-order remark,
  measured directly) — a set-associative LRU stage injects capacity and
  conflict displacements into the protocol state;
* **oracle-checked execution** (value-level coherence validation) — every
  access and eviction is routed through the
  :class:`~repro.core.oracle.CoherenceOracle` instead of the bare protocol.

Options compose: an oracle-checked finite run is just a pipeline with both
options set.  The *only* reference-feed loop in the package lives in
:meth:`ReferencePipeline.feed`; everything else — ``simulate``,
``validate_coherence``, ``model_check`` — is a wrapper over it, so a new
scenario is one pipeline option instead of another copy of the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # probes are observers; the core never imports obs at runtime
    from ..obs.probe import ReferenceProbe

from ..interconnect.bus import BusCostModel
from ..interconnect.costs import CostSummary, summarize_costs
from ..memory.cache import CacheGeometry, FiniteCache
from ..protocols.base import CoherenceProtocol
from ..trace.record import DEFAULT_BLOCK_SIZE, AccessType, TraceRecord
from ..trace.stream import SharingModel
from .counters import EventFrequencies, SimulationCounters
from .invalidation import InvalidationHistogram
from .oracle import CoherenceOracle

__all__ = [
    "SetAssociativeLRU",
    "ReferencePipeline",
    "SimulationResult",
]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one (protocol, trace) simulation.

    ``geometry`` is the cache-geometry spec the run used (``"64x4"`` style,
    see :meth:`~repro.memory.cache.CacheGeometry.spec`), or ``None`` for
    the paper's infinite caches.
    """

    protocol_name: str
    protocol_label: str
    trace_name: str
    counters: SimulationCounters
    n_caches: int
    block_size: int
    sharing_model: SharingModel
    geometry: Optional[str] = None

    @property
    def references(self) -> int:
        return self.counters.references

    @property
    def evictions(self) -> int:
        """Capacity/conflict displacements (0 under infinite caches)."""
        return self.counters.evictions

    @property
    def dirty_evictions(self) -> int:
        return self.counters.dirty_evictions

    @property
    def eviction_rate(self) -> float:
        """Evictions per reference."""
        if self.references == 0:
            return 0.0
        return self.evictions / self.references

    def frequencies(self) -> EventFrequencies:
        """Event rates in percent of all references (Table 4 column)."""
        return self.counters.frequencies()

    def cost_summary(self, bus: BusCostModel) -> CostSummary:
        """Bus cycles per reference under ``bus`` (Table 5 column)."""
        return summarize_costs(self.protocol_label, self.counters.ops, bus)

    def cycles_per_reference(self, bus: BusCostModel) -> float:
        return self.cost_summary(bus).cycles_per_reference

    def energy_per_reference(self, bus: BusCostModel) -> Optional[float]:
        """Nanojoules per reference, or ``None`` if ``bus`` has no energy axis."""
        return self.cost_summary(bus).energy_per_reference

    @property
    def invalidation_histogram(self) -> InvalidationHistogram:
        """Fan-out distribution of writes to previously-clean blocks (Fig 1)."""
        return self.counters.fanout


class SetAssociativeLRU:
    """The finite-geometry stage: set-associative LRU caches.

    It sits between unit resolution and the protocol.  Before each data
    access (:meth:`before_access`) the block is made resident in the
    accessing cache; any victim is displaced through ``evict`` (the
    protocol's :meth:`~repro.protocols.base.CoherenceProtocol.evict`, or
    the oracle's when values are checked), whose bus operations (dirty
    write-backs) are added to the tally.  After the
    access (:meth:`after_access`), blocks the protocol invalidated in other
    caches are dropped from their finite caches so residency stays
    consistent.  Instruction fetches bypass the stage entirely — the paper
    excludes instruction traffic from the data caches throughout.

    The paper's footnote that "coherency-related misses will be fewer in a
    finite-sized cache" (some would-be-invalidated blocks have already been
    purged) emerges naturally from this construction.
    """

    def __init__(
        self, protocol: CoherenceProtocol, geometry: CacheGeometry, evict: Callable
    ) -> None:
        self.protocol = protocol
        self.geometry = geometry
        self._evict = evict
        self.caches = [FiniteCache(geometry) for _ in range(protocol.n_caches)]

    def before_access(
        self, unit: int, block: int, counters: SimulationCounters
    ) -> None:
        """Make ``block`` resident in ``unit``'s cache, tallying displacements."""
        cache = self.caches[unit]
        if not cache.touch(block):
            victim = cache.insert(block)
            if victim is not None:
                counters.evictions += 1
                ops = counters.ops
                for op, count in self._evict(unit, victim):
                    ops.add(op, count)
                    counters.dirty_evictions += 1

    def after_access(self, unit: int, block: int) -> None:
        """Reconcile residency with the protocol's post-access sharing state."""
        holders = self.protocol.sharing.holders(block)
        for other_unit, other_cache in enumerate(self.caches):
            if other_unit != unit and not (holders >> other_unit) & 1:
                other_cache.invalidate(block)


class ReferencePipeline:
    """One engine: trace source -> unit map -> geometry -> protocol -> counters.

    The pipeline owns all per-run state: the protocol, the sharing-unit
    registry, the geometry stage's residency, the oracle's version
    bookkeeping, and the invariant-check cadence.

    Args:
        protocol: a freshly constructed protocol (its cache count bounds
            the number of distinct sharing units the trace may contain).
        geometry: finite-cache geometry; ``None`` (default) simulates the
            paper's infinite caches.
        block_size: bytes per block (the paper uses 16 throughout).
        sharing_model: classify sharing by process (paper default) or by
            processor.
        check_invariants_every: if positive, assert the single-writer
            invariant on the sharing table every N references (slow; meant
            for tests).
        check_values: wrap every access in a value-tracking
            :class:`~repro.core.oracle.CoherenceOracle`, raising
            :class:`~repro.core.oracle.CoherenceViolation` on any stale
            read (the oracle is exposed as :attr:`oracle`).
        probe: a :class:`~repro.obs.probe.ReferenceProbe` receiving every
            processed reference (unit, access, block, outcome).  Probes
            observe only — counters and protocol state are bit-identical
            with and without one — and cost the hot loop a single ``None``
            check when absent.
    """

    def __init__(
        self,
        protocol: CoherenceProtocol,
        *,
        geometry: Optional[CacheGeometry] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sharing_model: SharingModel = SharingModel.PROCESS,
        check_invariants_every: int = 0,
        check_values: bool = False,
        probe: Optional["ReferenceProbe"] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.protocol = protocol
        self.block_size = block_size
        self.sharing_model = sharing_model
        self.check_invariants_every = check_invariants_every
        self.oracle: Optional[CoherenceOracle] = (
            CoherenceOracle(protocol) if check_values else None
        )
        # The oracle sees evictions too: their write-backs update memory.
        checked = self.oracle if self.oracle is not None else protocol
        self._access: Callable[[int, AccessType, int], object] = checked.access
        self._stage = None
        if geometry is not None:
            self._stage = SetAssociativeLRU(protocol, geometry, checked.evict)
        self._geometry_spec = geometry.spec if geometry is not None else None
        self._probe = probe
        self._units: dict = {}
        self._by_process = sharing_model is SharingModel.PROCESS
        self._processed = 0

    # -- the engine ------------------------------------------------------------

    def resolve_unit(self, record: TraceRecord) -> int:
        """Dense cache index for the record's sharing unit (pid or cpu)."""
        return self.resolve_key(
            record.pid if self._by_process else record.cpu
        )

    def resolve_key(self, key: int) -> int:
        """Dense cache index for a raw sharing-unit key (a pid or cpu id).

        Split out from :meth:`resolve_unit` so alternate feeders (the fast
        backend's column decoder) share the registry — and its overflow
        check — without materialising :class:`TraceRecord` objects.
        """
        units = self._units
        unit = units.get(key)
        if unit is None:
            unit = len(units)
            if unit >= self.protocol.n_caches:
                raise ValueError(
                    f"trace has more than {self.protocol.n_caches} sharing "
                    f"units; construct the protocol with more caches"
                )
            units[key] = unit
        return unit

    def step(
        self,
        unit: int,
        access: AccessType,
        block: int,
        counters: SimulationCounters,
    ):
        """Push one resolved reference through geometry -> protocol -> tally.

        Returns the protocol's :class:`~repro.protocols.base.AccessOutcome`.
        This is the whole per-reference pipeline body; the model checker
        drives it directly with enumerated (cache, access, block) steps.
        """
        stage = self._stage
        data = access is not AccessType.INSTR
        if stage is not None and data:
            stage.before_access(unit, block, counters)
        outcome = self._access(unit, access, block)
        counters.record(outcome)
        if stage is not None and data:
            stage.after_access(unit, block)
        probe = self._probe
        if probe is not None:
            probe.on_reference(self._processed, unit, access, block, outcome)
        self._processed += 1
        every = self.check_invariants_every
        if every and self._processed % every == 0:
            self.protocol.sharing.check_invariants()
        return outcome

    def feed(self, trace: Iterable[TraceRecord], counters: SimulationCounters) -> None:
        """Feed a whole trace through the pipeline, tallying into ``counters``.

        This is the package's only reference-feed loop.
        """
        step = self.step
        resolve = self.resolve_unit
        block_size = self.block_size
        for record in trace:
            step(
                resolve(record),
                record.access,
                record.address // block_size,
                counters,
            )

    # -- run wrappers ----------------------------------------------------------

    def run(self, trace: Iterable[TraceRecord], trace_name: str = "trace") -> SimulationResult:
        """Feed the whole trace and package the tallied result."""
        counters = SimulationCounters()
        self.feed(trace, counters)
        return self.result(trace_name, counters)

    def result(
        self, trace_name: str, counters: SimulationCounters
    ) -> SimulationResult:
        """Package ``counters`` as this pipeline's :class:`SimulationResult`."""
        return SimulationResult(
            protocol_name=self.protocol.name,
            protocol_label=self.protocol.label,
            trace_name=trace_name,
            counters=counters,
            n_caches=self.protocol.n_caches,
            block_size=self.block_size,
            sharing_model=self.sharing_model,
            geometry=self._geometry_spec,
        )
