"""Unit tests for trace stream transforms."""

import pytest

from conftest import record
from repro.trace.stream import (
    exclude_lock_spins,
    exclude_os,
    interleave,
    materialize,
    take,
)


class TestFilters:
    def test_exclude_lock_spins_drops_only_spins(self):
        trace = [
            record(address=0, spin=True),
            record(address=16),
            record(kind="w", address=0),
        ]
        kept = materialize(exclude_lock_spins(trace))
        assert len(kept) == 2
        assert all(not r.is_lock_spin for r in kept)

    def test_exclude_os(self):
        trace = [record(address=0, os=True), record(address=16)]
        kept = materialize(exclude_os(trace))
        assert len(kept) == 1 and not kept[0].is_os

    def test_take(self):
        trace = [record(address=16 * i) for i in range(10)]
        assert len(materialize(take(trace, 3))) == 3

    def test_take_rejects_negative(self):
        with pytest.raises(ValueError):
            take([], -1)


class TestInterleave:
    def _stream(self, cpu, n):
        return [record(cpu=cpu, address=16 * i) for i in range(n)]

    def test_preserves_program_order_per_stream(self):
        streams = [self._stream(0, 5), self._stream(1, 5)]
        merged = materialize(interleave(streams, iter([2, 2, 2, 2, 2])))
        per_cpu = {0: [], 1: []}
        for r in merged:
            per_cpu[r.cpu].append(r.address)
        assert per_cpu[0] == sorted(per_cpu[0])
        assert per_cpu[1] == sorted(per_cpu[1])

    def test_emits_every_record_exactly_once(self):
        streams = [self._stream(0, 3), self._stream(1, 7), self._stream(2, 1)]
        merged = materialize(interleave(streams, iter([3, 1, 4])))
        assert len(merged) == 11

    def test_exhausted_run_length_defaults_to_one(self):
        streams = [self._stream(0, 4), self._stream(1, 4)]
        merged = materialize(interleave(streams, iter([])))
        assert len(merged) == 8
        # With run length 1 the schedule strictly alternates.
        assert [r.cpu for r in merged[:4]] == [0, 1, 0, 1]
