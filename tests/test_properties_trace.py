"""Property-based tests for trace formats, streams and digit codes."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.protocols.directory.coarse import DigitCode
from repro.trace.atum import read_binary, read_text, write_binary, write_text
from repro.trace.packed import PackedTrace
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import exclude_lock_spins, interleave, materialize

records = st.builds(
    TraceRecord,
    cpu=st.integers(min_value=0, max_value=255),
    pid=st.integers(min_value=0, max_value=65535),
    access=st.sampled_from(AccessType),
    address=st.integers(min_value=0, max_value=2**48),
    is_lock_spin=st.booleans(),
    is_os=st.booleans(),
)
traces = st.lists(records, max_size=60)


class TestAtumRoundTrip:
    @given(trace=traces)
    @example(trace=[])
    @settings(max_examples=40, deadline=None)
    def test_binary_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("atum") / "trace.bin"
        write_binary(path, trace)
        assert list(read_binary(path)) == trace
        # The same records as columns: the persisted form of a PackedTrace.
        packed = PackedTrace.from_records(trace)
        assert write_binary(path, packed) == len(trace)
        loaded = PackedTrace.from_records(read_binary(path))
        assert list(loaded) == trace
        for name in PackedTrace.__slots__:
            first, second = getattr(packed, name), getattr(loaded, name)
            assert first.typecode == second.typecode
            assert first == second, name

    @given(trace=traces)
    @settings(max_examples=40, deadline=None)
    def test_text_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("atum") / "trace.txt"
        write_text(path, trace)
        assert list(read_text(path)) == trace


class TestStreamProperties:
    @given(trace=traces)
    @settings(max_examples=60)
    def test_spin_exclusion_is_idempotent(self, trace):
        once = materialize(exclude_lock_spins(trace))
        twice = materialize(exclude_lock_spins(once))
        assert once == twice

    @given(trace=traces)
    @settings(max_examples=60)
    def test_spin_exclusion_partitions_the_trace(self, trace):
        kept = materialize(exclude_lock_spins(trace))
        dropped = [r for r in trace if r.is_lock_spin]
        assert len(kept) + len(dropped) == len(trace)

    @given(
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=1000), max_size=20),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60)
    def test_interleave_is_an_order_preserving_merge(self, streams, seed):
        rng = random.Random(seed)
        record_streams = [
            [
                TraceRecord(cpu=i, pid=i, access=AccessType.READ, address=a)
                for a in stream
            ]
            for i, stream in enumerate(streams)
        ]
        runs = [rng.randint(1, 4) for _ in range(200)]
        merged = materialize(interleave(record_streams, iter(runs)))
        assert len(merged) == sum(len(s) for s in record_streams)
        for i, stream in enumerate(record_streams):
            assert [r for r in merged if r.cpu == i] == stream


class TestDigitCodeProperties:
    caches = st.integers(min_value=0, max_value=15)

    @given(members=st.lists(caches, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_merged_code_is_always_a_superset(self, members):
        code = DigitCode.exact(members[0], width=4)
        for cache in members[1:]:
            code = code.merged_with(cache)
        for cache in members:
            assert code.contains(cache)

    @given(members=st.lists(caches, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_denoted_caches_match_contains(self, members):
        code = DigitCode.exact(members[0], width=4)
        for cache in members[1:]:
            code = code.merged_with(cache)
        denoted = set(code.denoted_caches())
        for cache in range(16):
            assert (cache in denoted) == code.contains(cache)
        assert len(denoted) == code.denoted_count

    @given(a=caches, b=caches)
    @settings(max_examples=100)
    def test_merge_is_commutative(self, a, b):
        ab = DigitCode.exact(a, width=4).merged_with(b)
        ba = DigitCode.exact(b, width=4).merged_with(a)
        assert ab == ba

    @given(members=st.lists(caches, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_denoted_count_is_a_power_of_two(self, members):
        code = DigitCode.exact(members[0], width=4)
        for cache in members[1:]:
            code = code.merged_with(cache)
        count = code.denoted_count
        assert count & (count - 1) == 0
