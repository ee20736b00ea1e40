"""ATUM-style trace file formats.

The paper's traces were captured with a multiprocessor extension of the ATUM
microcode tracing scheme (Section 4.4): an interleaved stream of addresses
annotated with CPU number and process identifier.  Real ATUM traces are not
redistributable, so this module defines two simple interchange formats with
the same information content, letting users plug captured traces into the
simulator:

* a **text format** (one record per line, ``#`` comments), convenient for
  hand-written fixtures and inspection, and
* a **binary format** (fixed 16-byte little-endian records behind a magic
  header), compact enough for multi-million-reference traces.  It is the
  package's one binary trace format; its fields are narrow: ``cpu`` must
  fit in 8 bits (0..255), ``pid`` in 16 (0..65535) and ``address`` in 64.
  :func:`write_binary` raises :class:`TraceFormatError` for a record that
  does not fit.  The text format has no such limit.

Both round-trip exactly through :class:`~repro.trace.record.TraceRecord`;
a :class:`~repro.trace.packed.PackedTrace` is written the same way and read
back with ``PackedTrace.from_records(read_binary(path))``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, Union

from .record import AccessType, TraceRecord

__all__ = [
    "write_text",
    "read_text",
    "write_binary",
    "read_binary",
    "TraceFormatError",
]

_ACCESS_CODES = {AccessType.INSTR: "I", AccessType.READ: "R", AccessType.WRITE: "W"}
_CODE_ACCESS = {code: access for access, code in _ACCESS_CODES.items()}

_BINARY_MAGIC = b"ATUMPY1\n"
_RECORD_STRUCT = struct.Struct("<BBHIQ")  # access+flags, cpu, pid, pad, address
_FLAG_LOCK_SPIN = 0x10
_FLAG_OS = 0x20
_ACCESS_MASK = 0x0F

#: Field -> largest value a binary record holds (all are unsigned).
_BINARY_LIMITS = (("cpu", 2**8 - 1), ("pid", 2**16 - 1), ("address", 2**64 - 1))

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed."""


def write_text(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace in text format; returns the number of records written.

    Line format: ``CPU PID ACCESS ADDRESS [FLAGS]`` where ``ACCESS`` is one of
    ``I``/``R``/``W``, ``ADDRESS`` is hexadecimal, and ``FLAGS`` is an
    optional combination of ``L`` (lock spin) and ``S`` (system/OS).
    """
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# repro ATUM-style text trace v1\n")
        handle.write("# cpu pid access address [flags: L=lock-spin S=os]\n")
        for record in trace:
            flags = ""
            if record.is_lock_spin:
                flags += "L"
            if record.is_os:
                flags += "S"
            line = f"{record.cpu} {record.pid} {_ACCESS_CODES[record.access]} {record.address:#x}"
            if flags:
                line += f" {flags}"
            handle.write(line + "\n")
            count += 1
    return count


def read_text(path: PathLike) -> Iterator[TraceRecord]:
    """Lazily read a text-format trace file."""
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (4, 5):
                raise TraceFormatError(
                    f"{path}:{lineno}: expected 4 or 5 fields, got {len(parts)}"
                )
            try:
                cpu = int(parts[0])
                pid = int(parts[1])
                access = _CODE_ACCESS[parts[2].upper()]
                address = int(parts[3], 0)
            except (ValueError, KeyError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            flags = parts[4].upper() if len(parts) == 5 else ""
            unknown = set(flags) - {"L", "S"}
            if unknown:
                raise TraceFormatError(
                    f"{path}:{lineno}: unknown flags {sorted(unknown)}"
                )
            yield TraceRecord(
                cpu=cpu,
                pid=pid,
                access=access,
                address=address,
                is_lock_spin="L" in flags,
                is_os="S" in flags,
            )


def _unfit_field(path: PathLike, index: int, record: TraceRecord, error) -> str:
    """Why record ``index`` does not fit a binary record, naming the field."""
    for name, limit in _BINARY_LIMITS:
        value = getattr(record, name)
        if not isinstance(value, int) or not 0 <= value <= limit:
            return (
                f"{path}: record {index}: {name} {value!r} does not fit the "
                f"binary format (0..{limit}); the text format has no limit"
            )
    return f"{path}: record {index}: {error}"


def write_binary(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace in the compact binary format; returns the record count.

    Raises :class:`TraceFormatError` for a record whose ``cpu``, ``pid`` or
    ``address`` is outside the format's field widths (see the module
    docstring); the records before it have been written.
    """
    count = 0
    pack = _RECORD_STRUCT.pack
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC)
        for record in trace:
            tag = int(record.access)
            if record.is_lock_spin:
                tag |= _FLAG_LOCK_SPIN
            if record.is_os:
                tag |= _FLAG_OS
            try:
                packed = pack(tag, record.cpu, record.pid, 0, record.address)
            except struct.error as exc:
                message = _unfit_field(path, count, record, exc)
                raise TraceFormatError(message) from None
            handle.write(packed)
            count += 1
    return count


def read_binary(path: PathLike) -> Iterator[TraceRecord]:
    """Lazily read a binary-format trace file."""
    size = _RECORD_STRUCT.size
    unpack = _RECORD_STRUCT.unpack
    with open(path, "rb") as handle:
        magic = handle.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        while True:
            chunk = handle.read(size)
            if not chunk:
                return
            if len(chunk) != size:
                raise TraceFormatError(f"{path}: truncated record at end of file")
            tag, cpu, pid, _pad, address = unpack(chunk)
            access_code = tag & _ACCESS_MASK
            try:
                access = AccessType(access_code)
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}: invalid access code {access_code}"
                ) from exc
            yield TraceRecord(
                cpu=cpu,
                pid=pid,
                access=access,
                address=address,
                is_lock_spin=bool(tag & _FLAG_LOCK_SPIN),
                is_os=bool(tag & _FLAG_OS),
            )
