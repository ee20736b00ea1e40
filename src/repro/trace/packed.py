"""Column-packed traces: the one form a trace takes from generator to kernel.

A full-length paper trace is ~3.2M references; as Python objects that is
hundreds of megabytes and a lot of allocator churn.  :class:`PackedTrace`
stores the same information as five standard-library :class:`array.array`
columns, 16 bytes per reference (~51 MB for a full-scale trace).  The
synthetic generator appends straight into them, the fast backend decodes
them in batches, and iterating one yields
:class:`~repro.trace.record.TraceRecord` objects on demand for everything
that consumes records.

To keep a trace on disk, write it in one of the ATUM formats of
:mod:`repro.trace.atum` and read it back with
``PackedTrace.from_records(read_binary(path))``.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Union

from .record import AccessType, TraceRecord

__all__ = ["FLAG_OS", "FLAG_SPIN", "PackedTrace"]

#: Bits of the ``flags`` column.
FLAG_SPIN = 0x1
FLAG_OS = 0x2

#: Column name -> array typecode: 2 + 4 + 1 + 8 + 1 = 16 bytes a reference.
_COLUMNS = (
    ("cpu", "H"),
    ("pid", "I"),
    ("access", "B"),
    ("address", "Q"),
    ("flags", "B"),
)

_ACCESS_BY_CODE = tuple(AccessType)


def _column(name: str, typecode: str, values) -> array:
    """``values`` as a ``typecode`` array; a clear error if one does not fit."""
    try:
        return array(typecode, values)
    except OverflowError as exc:
        raise ValueError(f"{name} column value out of range: {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{name} column must hold integers: {exc}") from None


def _record(cpu: int, pid: int, access: int, address: int, flag: int):
    """One reference's column values as a :class:`TraceRecord`."""
    return TraceRecord(
        cpu,
        pid,
        _ACCESS_BY_CODE[access],
        address,
        bool(flag & FLAG_SPIN),
        bool(flag & FLAG_OS),
    )


class PackedTrace:
    """A column-oriented container of trace records."""

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, cpu, pid, access, address, flags) -> None:
        for (name, typecode), values in zip(
            _COLUMNS, (cpu, pid, access, address, flags)
        ):
            setattr(self, name, _column(name, typecode, values))
        lengths = {len(getattr(self, name)) for name in self.__slots__}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "PackedTrace":
        trace = cls((), (), (), (), ())
        cpu, pid = trace.cpu.append, trace.pid.append
        access, address = trace.access.append, trace.address.append
        flags = trace.flags.append
        for record in records:
            cpu(record.cpu)
            pid(record.pid)
            access(record.access)
            address(record.address)
            flags(
                (FLAG_SPIN if record.is_lock_spin else 0)
                | (FLAG_OS if record.is_os else 0)
            )
        return trace

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.cpu)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self.cpu, self.pid, self.access, self.address, self.flags)

    def __getitem__(self, index) -> Union[TraceRecord, "PackedTrace"]:
        columns = (self.cpu, self.pid, self.access, self.address, self.flags)
        if isinstance(index, slice):
            return PackedTrace(*(column[index] for column in columns))
        return _record(*(column[index] for column in columns))

    # -- footprint --------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the columns."""
        return sum(
            len(column) * column.itemsize
            for column in (self.cpu, self.pid, self.access, self.address, self.flags)
        )
