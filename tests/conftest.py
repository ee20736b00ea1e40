"""Shared test fixtures and helpers."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import pytest

from repro.protocols.base import AccessOutcome, CoherenceProtocol
from repro.trace.record import AccessType, TraceRecord

def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ snapshots from the current simulation "
        "output instead of comparing against them",
    )


#: A compact op spec: (cache, "r"/"w"/"i", block)
OpSpec = Tuple[int, str, int]

_ACCESS_OF = {"r": AccessType.READ, "w": AccessType.WRITE, "i": AccessType.INSTR}


def run_ops(
    protocol: CoherenceProtocol, ops: Iterable[OpSpec]
) -> List[AccessOutcome]:
    """Feed (cache, kind, block) tuples through a protocol."""
    return [
        protocol.access(cache, _ACCESS_OF[kind], block) for cache, kind, block in ops
    ]


def record(
    cpu: int = 0,
    pid: int = None,
    kind: str = "r",
    address: int = 0,
    spin: bool = False,
    os: bool = False,
) -> TraceRecord:
    """Terse TraceRecord builder (pid defaults to cpu)."""
    return TraceRecord(
        cpu=cpu,
        pid=cpu if pid is None else pid,
        access=_ACCESS_OF[kind],
        address=address,
        is_lock_spin=spin,
        is_os=os,
    )


def trace_of(specs: Sequence[Tuple]) -> List[TraceRecord]:
    """Build a trace from (cpu, kind, address) or (cpu, kind, address, pid)."""
    records = []
    for spec in specs:
        cpu, kind, address = spec[0], spec[1], spec[2]
        pid = spec[3] if len(spec) > 3 else cpu
        records.append(record(cpu=cpu, pid=pid, kind=kind, address=address))
    return records


@pytest.fixture
def tiny_trace() -> List[TraceRecord]:
    """A hand-written 4-processor trace exercising sharing patterns.

    Block 0 is read-shared by everyone; block 1 is written by cpu 0 then
    read by cpu 1 (dirty supply); block 2 is private to cpu 2; block 3 is a
    lock-like word with spins.
    """
    blk = 16  # block size: addresses 0, 16, 32, 48 are blocks 0..3
    return [
        record(0, kind="i", address=1000),
        record(0, kind="r", address=0 * blk),
        record(1, kind="r", address=0 * blk),
        record(2, kind="r", address=0 * blk),
        record(3, kind="r", address=0 * blk),
        record(0, kind="w", address=1 * blk),
        record(1, kind="r", address=1 * blk),
        record(2, kind="r", address=2 * blk),
        record(2, kind="w", address=2 * blk),
        record(3, kind="r", address=3 * blk, spin=True),
        record(3, kind="r", address=3 * blk, spin=True),
        record(0, kind="w", address=0 * blk),
        record(1, kind="r", address=0 * blk),
    ]
