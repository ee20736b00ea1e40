"""Unit tests for the ATUM-style trace file formats."""

import pytest

from conftest import record
from repro.trace.atum import (
    TraceFormatError,
    read_binary,
    read_text,
    write_binary,
    write_text,
)
from repro.trace.packed import PackedTrace
from repro.trace.record import AccessType, TraceRecord


def _sample():
    return [
        record(0, kind="i", address=0x1000),
        record(1, pid=5, kind="r", address=0x2010, spin=True),
        record(2, pid=6, kind="w", address=0x3020, os=True),
        record(3, kind="r", address=0xFFFF_FFFF_0),
    ]


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt"
        count = write_text(path, _sample())
        assert count == 4
        assert list(read_text(path)) == _sample()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n0 0 R 0x10\n 0 0 W 0x20 # trailing\n")
        records = list(read_text(path))
        assert len(records) == 2
        assert records[1].access is AccessType.WRITE

    def test_flags_parsed(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 R 0x10 LS\n")
        (rec,) = read_text(path)
        assert rec.is_lock_spin and rec.is_os

    def test_bad_field_count_raises(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 R\n")
        with pytest.raises(TraceFormatError, match="expected 4 or 5 fields"):
            list(read_text(path))

    def test_bad_access_code_raises(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 X 0x10\n")
        with pytest.raises(TraceFormatError):
            list(read_text(path))

    def test_unknown_flag_raises(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 R 0x10 Q\n")
        with pytest.raises(TraceFormatError, match="unknown flags"):
            list(read_text(path))

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 0 R 256\n")
        (rec,) = read_text(path)
        assert rec.address == 256


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.bin"
        count = write_binary(path, _sample())
        assert count == 4
        assert list(read_binary(path)) == _sample()

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "trace.bin"
        assert write_binary(path, []) == 0
        assert list(read_binary(path)) == []

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_bytes(b"NOTATUM!" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bad magic"):
            list(read_binary(path))

    def test_truncated_record_raises(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_binary(path, _sample())
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError, match="truncated"):
            list(read_binary(path))

    def test_large_addresses_survive(self, tmp_path):
        path = tmp_path / "trace.bin"
        big = TraceRecord(cpu=0, pid=0, access=AccessType.READ, address=2**60)
        write_binary(path, [big])
        assert list(read_binary(path)) == [big]

    def test_reading_is_lazy(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_binary(path, _sample())
        iterator = read_binary(path)
        assert next(iterator) == _sample()[0]

    @pytest.mark.parametrize(
        "field, value, limit",
        [
            ("cpu", 256, 255),
            ("cpu", -1, 255),
            ("pid", 65536, 65535),
            ("address", 2**64, 2**64 - 1),
        ],
    )
    def test_out_of_range_field_names_field_value_and_record(
        self, tmp_path, field, value, limit
    ):
        bad = TraceRecord(
            **{**dict(cpu=0, pid=0, access=AccessType.READ, address=0), field: value}
        )
        expected = rf"record 4: {field} {value} does not fit .*0\.\.{limit}"
        with pytest.raises(TraceFormatError, match=expected):
            write_binary(tmp_path / "trace.bin", [*_sample(), bad])

    def test_out_of_range_packed_cpu_is_a_format_error(self, tmp_path):
        with pytest.raises(TraceFormatError, match="record 0: cpu 256"):
            write_binary(tmp_path / "trace.bin", PackedTrace([256], [1], [1], [0], [0]))

    def test_text_format_holds_what_binary_cannot(self, tmp_path):
        wide = [TraceRecord(cpu=256, pid=65536, access=AccessType.WRITE, address=1)]
        path = tmp_path / "trace.txt"
        write_text(path, wide)
        assert list(read_text(path)) == wide
