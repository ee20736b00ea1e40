"""Property-based coherence validation: every protocol, random programs.

This is the strongest correctness statement in the suite: for *any* access
sequence hypothesis can construct, every registered protocol delivers
coherent data — no cache ever reads a stale version.  The oracle tracks
actual data movement through the emitted bus operations, so a protocol that
"passes" here genuinely moves current data around, not just plausible
state bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.counters import SimulationCounters
from repro.core.oracle import CoherenceOracle
from repro.core.pipeline import ReferencePipeline
from repro.memory.cache import CacheGeometry
from repro.protocols.registry import PROTOCOLS, create_protocol
from repro.trace.record import AccessType, TraceRecord

N_CACHES = 4
N_BLOCKS = 10

accesses = st.tuples(
    st.integers(min_value=0, max_value=N_CACHES - 1),
    st.sampled_from((AccessType.READ, AccessType.WRITE)),
    st.integers(min_value=0, max_value=N_BLOCKS - 1),
)
programs = st.lists(accesses, min_size=1, max_size=150)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestCoherenceUnderRandomPrograms:
    @given(program=programs)
    @settings(max_examples=40, deadline=None)
    def test_no_stale_read_ever(self, name, program):
        oracle = CoherenceOracle(create_protocol(name, N_CACHES))
        for cache, access, block in program:
            oracle.access(cache, access, block)
        oracle.check_all_copies()

    @given(program=programs)
    @settings(max_examples=20, deadline=None)
    def test_oracle_and_protocol_agree_on_outcomes(self, name, program):
        """The oracle is a transparent wrapper: outcomes pass through."""
        wrapped = CoherenceOracle(create_protocol(name, N_CACHES))
        plain = create_protocol(name, N_CACHES)
        for cache, access, block in program:
            via_oracle = wrapped.access(cache, access, block)
            direct = plain.access(cache, access, block)
            assert via_oracle.event is direct.event
            assert via_oracle.ops == direct.ops


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestCoherenceUnderFiniteCaches:
    """The oracle sees evictions too: a dirty victim's write-back makes
    memory current, so a refetch after displacement reads the latest
    version rather than memory's stale one."""

    def test_refetch_after_dirty_eviction_is_current(self, name):
        # 2 sets x 1 way: blocks 0 and 2 (addresses 0 and 32) share a set.
        trace = [
            TraceRecord(cpu=0, pid=0, access=access, address=address)
            for access, address in (
                (AccessType.WRITE, 0),
                (AccessType.READ, 32),
                (AccessType.READ, 0),
                (AccessType.READ, 0),
            )
        ]
        pipeline = ReferencePipeline(
            create_protocol(name, N_CACHES),
            check_values=True,
            geometry=CacheGeometry.parse("2x1"),
        )
        result = pipeline.run(trace)
        assert result.evictions == 2
        pipeline.oracle.check_all_copies()

    @pytest.mark.parametrize("geometry", ["2x1", "2x2"])
    @given(program=programs)
    @settings(max_examples=40, deadline=None)
    def test_no_stale_read_ever(self, name, geometry, program):
        pipeline = ReferencePipeline(
            create_protocol(name, N_CACHES),
            check_values=True,
            geometry=CacheGeometry.parse(geometry),
        )
        counters = SimulationCounters()
        for cache, access, block in program:
            pipeline.step(cache, access, block, counters)
        pipeline.oracle.check_all_copies()
