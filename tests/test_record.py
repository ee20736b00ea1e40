"""Unit tests for trace records and block addressing."""

import pytest

from repro.trace.classify import classify_blocks
from repro.trace.record import (
    DEFAULT_BLOCK_SIZE,
    AccessType,
    TraceRecord,
    block_of,
)
from repro.trace.stats import collect_stats

#: Two data references in two different 16-byte blocks.
_TWO_BLOCKS = [
    TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=16),
    TraceRecord(cpu=1, pid=1, access=AccessType.WRITE, address=32),
]

#: Every trace-side way of mapping addresses to blocks of a given size.
_BLOCK_MAPPERS = {
    "block_of": lambda size: block_of(16, size),
    "TraceRecord.block": lambda size: _TWO_BLOCKS[0].block(size),
    "collect_stats": lambda size: collect_stats(_TWO_BLOCKS, block_size=size),
    "classify_blocks": lambda size: classify_blocks(_TWO_BLOCKS, block_size=size),
}


class TestAccessType:
    def test_instr_is_not_data(self):
        assert not AccessType.INSTR.is_data

    def test_read_and_write_are_data(self):
        assert AccessType.READ.is_data
        assert AccessType.WRITE.is_data

    def test_values_are_stable_for_binary_format(self):
        # The binary trace format encodes these values; they must not change.
        assert AccessType.INSTR == 0
        assert AccessType.READ == 1
        assert AccessType.WRITE == 2


class TestTraceRecord:
    def test_block_uses_default_block_size(self):
        record = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=35)
        assert record.block() == 35 // DEFAULT_BLOCK_SIZE

    def test_block_with_custom_size(self):
        record = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=128)
        assert record.block(block_size=64) == 2

    def test_kind_predicates(self):
        read = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=0)
        write = TraceRecord(cpu=0, pid=0, access=AccessType.WRITE, address=0)
        instr = TraceRecord(cpu=0, pid=0, access=AccessType.INSTR, address=0)
        assert read.is_read and not read.is_write and not read.is_instruction
        assert write.is_write and not write.is_read
        assert instr.is_instruction and not instr.is_read

    def test_records_are_immutable(self):
        record = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=0)
        with pytest.raises(AttributeError):
            record.address = 5

    def test_default_flags_are_false(self):
        record = TraceRecord(cpu=1, pid=2, access=AccessType.READ, address=16)
        assert not record.is_lock_spin
        assert not record.is_os

    def test_equality_is_structural(self):
        a = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=16)
        b = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=16)
        assert a == b


class TestBlockOf:
    def test_block_boundaries(self):
        assert block_of(0) == 0
        assert block_of(15) == 0
        assert block_of(16) == 1

    def test_rejects_nonpositive_block_size(self):
        with pytest.raises(ValueError):
            block_of(0, block_size=0)

    @pytest.mark.parametrize("size", [0, -16])
    @pytest.mark.parametrize("mapper", sorted(_BLOCK_MAPPERS))
    def test_every_block_mapper_rejects_nonpositive_sizes(self, mapper, size):
        with pytest.raises(ValueError, match="block_size must be positive"):
            _BLOCK_MAPPERS[mapper](size)

    @pytest.mark.parametrize("size", [4, 16, 32, 64])
    def test_consecutive_addresses_in_same_block(self, size):
        base = 7 * size
        blocks = {block_of(base + offset, size) for offset in range(size)}
        assert blocks == {7}
