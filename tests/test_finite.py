"""Unit tests for the finite-cache extension simulator."""

from unittest.mock import patch

import pytest

from conftest import trace_of
from repro.core import fastsim
from repro.core.simulator import simulate
from repro.interconnect.bus import BusOp, pipelined_bus
from repro.memory.cache import CacheGeometry
from repro.protocols.events import Event
from repro.protocols.registry import PROTOCOLS, create_protocol
from repro.trace.synthetic import SyntheticWorkload, WorkloadProfile
from repro.trace.workloads import standard_trace

#: One smallish trace with genuine sharing, generated once per test session.
_PROFILE = WorkloadProfile(name="MERGEPROP", length=420, seed=7, processes=4)
_TRACE = list(SyntheticWorkload(_PROFILE).records())

#: Far larger than the trace's block footprint: the LRU stage can never
#: displace, so the only difference from the infinite path is bookkeeping.
_HUGE_GEOMETRY = CacheGeometry(n_sets=4096, associativity=4)


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_effectively_infinite_geometry_matches_infinite_run(protocol_name):
    """The finite stage with a never-evicting geometry is a no-op: every
    counter matches the infinite-cache run bit-for-bit, for every protocol."""
    infinite = simulate(create_protocol(protocol_name, 4), _TRACE)
    finite = simulate(
        create_protocol(protocol_name, 4), _TRACE, geometry=_HUGE_GEOMETRY
    )
    assert finite.counters.signature() == infinite.counters.signature()
    assert finite.counters.evictions == 0


#: Small enough that displacements actually happen on _TRACE.
_TINY_GEOMETRY = CacheGeometry(n_sets=4, associativity=2)


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_displacing_runs_carry_lru_state_across_batches(protocol_name, packed):
    """While the LRU stage is displacing, the fast kernel's cache and
    recency state survives every internal batch boundary: any batch size
    counts exactly what one reference pass counts, evictions included."""
    expected = simulate(
        create_protocol(protocol_name, 4), _TRACE, geometry=_TINY_GEOMETRY
    ).counters.signature()
    assert expected["evictions"] > 0
    trace = _TRACE
    if packed:
        from repro.trace.packed import PackedTrace

        trace = PackedTrace.from_records(_TRACE)
    for batch in (1, 2, 7, 100, len(_TRACE) - 1, len(_TRACE)):
        with patch.object(fastsim, "BATCH_SIZE", batch):
            fast = simulate(
                create_protocol(protocol_name, 4),
                trace,
                geometry=_TINY_GEOMETRY,
                backend="fast",
            )
        assert fast.counters.signature() == expected, f"BATCH_SIZE={batch}"


class TestFiniteSimulation:
    def test_large_cache_matches_infinite(self, tiny_trace):
        geometry = CacheGeometry(n_sets=1024, associativity=4)
        finite = simulate(
            create_protocol("dir0b", 4), tiny_trace, geometry=geometry
        )
        infinite = simulate(create_protocol("dir0b", 4), tiny_trace)
        assert finite.evictions == 0
        assert finite.counters.events == infinite.counters.events

    def test_tiny_cache_evicts(self):
        # One set, one way: every new block displaces the previous one.
        trace = trace_of([(0, "r", 16 * i) for i in range(8)])
        geometry = CacheGeometry(n_sets=1, associativity=1)
        finite = simulate(create_protocol("dir0b", 4), trace, geometry=geometry)
        assert finite.evictions == 7
        assert finite.eviction_rate == pytest.approx(7 / 8)

    def test_dirty_eviction_writes_back(self):
        trace = trace_of([(0, "w", 0), (0, "w", 16)])
        geometry = CacheGeometry(n_sets=1, associativity=1)
        finite = simulate(create_protocol("dir0b", 4), trace, geometry=geometry)
        assert finite.dirty_evictions == 1
        assert finite.counters.ops.ops[BusOp.WRITE_BACK] == 1

    def test_capacity_misses_appear_as_refetches(self):
        # Re-reading an evicted block misses again (it would hit with an
        # infinite cache).
        trace = trace_of([(0, "r", 0), (0, "r", 16), (0, "r", 0)])
        geometry = CacheGeometry(n_sets=1, associativity=1)
        finite = simulate(create_protocol("dir0b", 4), trace, geometry=geometry)
        counters = finite.counters
        assert counters.event_count(Event.RM_UNCACHED) == 1

    def test_coherence_invalidations_mirrored_into_finite_caches(self):
        trace = trace_of([(0, "r", 0), (1, "w", 0), (0, "r", 0)])
        geometry = CacheGeometry(n_sets=4, associativity=2)
        finite = simulate(create_protocol("dir0b", 4), trace, geometry=geometry)
        # Cache 0's copy was invalidated by cache 1's write, so the final
        # read is a coherence miss, not a hit.
        assert finite.counters.event_count(Event.RM_BLK_DIRTY) == 1

    def test_too_many_units_rejected(self):
        trace = trace_of([(c, "r", 0) for c in range(5)])
        with pytest.raises(ValueError, match="sharing units"):
            simulate(
                create_protocol("dir0b", 4),
                trace,
                geometry=CacheGeometry(n_sets=4, associativity=1),
            )

    def test_paper_footnote_fewer_coherence_misses_in_finite_caches(self):
        """Footnote 2: some blocks that would be invalidated have already
        been purged by interference, so coherency misses shrink (they
        reappear as capacity misses instead)."""
        factory = lambda: standard_trace("POPS", scale=1 / 256)  # noqa: E731
        infinite = simulate(create_protocol("dir0b", 4), factory())
        finite = simulate(
            create_protocol("dir0b", 4),
            factory(),
            geometry=CacheGeometry(n_sets=16, associativity=1),
        )
        coherence_events = (Event.RM_BLK_DIRTY, Event.WM_BLK_DIRTY)
        infinite_coherence = sum(
            infinite.counters.event_count(e) for e in coherence_events
        )
        finite_coherence = sum(
            finite.counters.event_count(e) for e in coherence_events
        )
        total_finite_misses = finite.frequencies().data_miss_rate
        total_infinite_misses = infinite.frequencies().data_miss_rate
        assert total_finite_misses >= total_infinite_misses  # capacity misses
        assert finite_coherence <= infinite_coherence * 1.2

    def test_cost_summary_still_works(self, tiny_trace):
        finite = simulate(
            create_protocol("wti", 4),
            tiny_trace,
            geometry=CacheGeometry(n_sets=2, associativity=1),
        )
        assert finite.cost_summary(pipelined_bus()).cycles_per_reference > 0
