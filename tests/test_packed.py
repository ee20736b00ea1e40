"""Tests for the column-packed trace container."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import record
from repro.core.simulator import simulate
from repro.protocols import create_protocol
from repro.trace import standard_trace, take
from repro.trace.packed import PackedTrace
from repro.trace.record import AccessType, TraceRecord
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import standard_profile, standard_trace_names

#: Column -> (array typecode, bytes per value): 16 bytes a reference.
COLUMN_TYPES = {
    "cpu": ("H", 2),
    "pid": ("I", 4),
    "access": ("B", 1),
    "address": ("Q", 8),
    "flags": ("B", 1),
}


def _sample():
    return [
        record(0, kind="i", address=0x100),
        record(1, pid=7, kind="r", address=0x200, spin=True),
        record(2, pid=8, kind="w", address=0x300, os=True),
        record(3, kind="r", address=2**40),
    ]


class TestRoundTrip:
    def test_records_round_trip(self):
        packed = PackedTrace.from_records(_sample())
        assert list(packed) == _sample()

    def test_len_and_indexing(self):
        packed = PackedTrace.from_records(_sample())
        assert len(packed) == 4
        assert packed[1] == _sample()[1]

    def test_slicing_returns_packed(self):
        packed = PackedTrace.from_records(_sample())
        tail = packed[2:]
        assert isinstance(tail, PackedTrace)
        assert list(tail) == _sample()[2:]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="column lengths"):
            PackedTrace([0], [0, 1], [1], [0], [0])


class TestStandardTrace:
    @pytest.fixture(scope="class")
    def packed(self):
        return PackedTrace.from_records(
            take(standard_trace("POPS", scale=1 / 128), 15000)
        )

    def test_memory_footprint_is_compact(self, packed):
        # 16 bytes of columns per record vs hundreds for Python objects.
        assert packed.nbytes <= 16 * len(packed)

    def test_simulation_from_packed_matches_records(self, packed):
        from_packed = simulate(create_protocol("dir0b", 4), packed)
        from_records = simulate(create_protocol("dir0b", 4), list(packed))
        assert from_packed.counters.events == from_records.counters.events


#: Records spanning the full representable width of every packed column:
#: cpu is uint16, pid uint32, address uint64, plus both boolean flags.
_FUZZ_RECORDS = st.builds(
    TraceRecord,
    cpu=st.integers(0, 2**16 - 1),
    pid=st.integers(0, 2**32 - 1),
    access=st.sampled_from(list(AccessType)),
    address=st.integers(0, 2**64 - 1),
    is_lock_spin=st.booleans(),
    is_os=st.booleans(),
)


class TestRoundTripFuzz:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_FUZZ_RECORDS, max_size=40))
    def test_full_width_round_trip(self, records):
        packed = PackedTrace.from_records(records)
        assert list(packed) == records

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_FUZZ_RECORDS, max_size=40))
    def test_encode_decode_encode_is_stable(self, records):
        once = PackedTrace.from_records(records)
        twice = PackedTrace.from_records(list(once))
        for name, (typecode, itemsize) in COLUMN_TYPES.items():
            first, second = getattr(once, name), getattr(twice, name)
            assert first.typecode == second.typecode == typecode
            assert first.itemsize == itemsize
            assert first == second

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_FUZZ_RECORDS, max_size=40), data=st.data())
    def test_slice_round_trip(self, records, data):
        packed = PackedTrace.from_records(records)
        start = data.draw(st.integers(0, len(records)))
        stop = data.draw(st.integers(start, len(records)))
        assert list(packed[start:stop]) == records[start:stop]


class TestEmptyTrace:
    def test_empty_round_trip(self):
        packed = PackedTrace.from_records([])
        assert len(packed) == 0
        assert list(packed) == []

    def test_empty_slice_of_nonempty(self):
        packed = PackedTrace.from_records(_sample())
        assert list(packed[2:2]) == []


class TestColumnValidation:
    def test_max_width_values_survive(self):
        packed = PackedTrace(
            [2**16 - 1], [2**32 - 1], [2], [2**64 - 1], [3]
        )
        top = packed[0]
        assert top.cpu == 2**16 - 1
        assert top.pid == 2**32 - 1
        assert top.address == 2**64 - 1
        assert top.is_lock_spin and top.is_os

    @pytest.mark.parametrize(
        "kwargs, column",
        [
            (dict(cpu=[2**16]), "cpu"),
            (dict(pid=[2**32]), "pid"),
            (dict(access=[300]), "access"),
            (dict(address=[2**64]), "address"),
            (dict(flags=[-1]), "flags"),
            (dict(cpu=[-1]), "cpu"),
        ],
    )
    def test_out_of_range_values_rejected(self, kwargs, column):
        columns = dict(cpu=[0], pid=[0], access=[1], address=[0], flags=[0])
        columns.update(kwargs)
        with pytest.raises(ValueError, match=column):
            PackedTrace(**columns)

    def test_non_integer_column_rejected(self):
        with pytest.raises(ValueError, match="address.*integers"):
            PackedTrace([0], [0], [1], [1.5], [0])


@st.composite
def _workloads(draw):
    """A calibrated profile at a drawn seed and scale, with drawn fields."""
    profile = standard_profile(
        draw(st.sampled_from(standard_trace_names())),
        scale=1 / draw(st.integers(256, 4096)),
        seed=draw(st.integers(0, 2**32)),
    )
    return SyntheticWorkload(
        replace(
            profile,
            processes=draw(st.integers(1, 6)),
            processors=draw(st.integers(1, 4)),
            extra_instr_per_data=draw(st.sampled_from([0.0, 0.5, 1.5])),
            migration_rate=draw(st.sampled_from([0.0, 0.001, 0.05])),
            w_barrier=draw(st.sampled_from([0.0, 0.015, 5.0])),
            os_activity_fraction=draw(st.floats(0.0, 0.6)),
        )
    )


class TestGeneratorColumns:
    @settings(max_examples=25, deadline=None)
    @given(workload=_workloads())
    def test_generated_columns_match_repacked_records(self, workload):
        """The generator's columns are exactly its records, packed."""
        records = list(workload.records())
        repacked = PackedTrace.from_records(workload.records())
        assert list(repacked) == records
        packed = workload.packed()
        for name in COLUMN_TYPES:
            assert getattr(packed, name) == getattr(repacked, name), name
