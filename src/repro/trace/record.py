"""Memory-reference trace records.

The unit of input to every simulation in this library is a *trace record*: a
single memory reference issued by one CPU on behalf of one process.  The
record format mirrors what the paper's ATUM traces provide (Section 4.4):
interleaved per-CPU address streams annotated with CPU number and process
identifier, so that a reference can be attributed either to a *processor* or
to a *process* when classifying sharing.

Two extra annotations are carried that the paper derives from the trace
content rather than the raw format:

* ``is_lock_spin`` marks reads that are the "test" part of a
  test-and-test-and-set spin (used by the Section 5.2 experiment, which
  excludes lock tests from the trace).
* ``is_os`` marks operating-system references (Table 3 reports user/system
  reference splits).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "AccessType",
    "TraceRecord",
    "DEFAULT_BLOCK_SIZE",
    "block_of",
    "check_block_size",
]

#: Block size used throughout the paper: 4 words of 4 bytes (Section 4).
DEFAULT_BLOCK_SIZE = 16

#: Bytes per machine word (VAX word as used in the paper's bus model).
WORD_SIZE = 4

#: Words per block under the default block size.
WORDS_PER_BLOCK = DEFAULT_BLOCK_SIZE // WORD_SIZE


class AccessType(enum.IntEnum):
    """Kind of memory reference a trace record describes."""

    INSTR = 0  #: instruction fetch (never generates coherence traffic, Sec 4)
    READ = 1  #: data read
    WRITE = 2  #: data write

    @property
    def is_data(self) -> bool:
        """True for data reads and writes (instruction fetches excluded)."""
        return self is not AccessType.INSTR


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference in a multiprocessor address trace.

    Attributes:
        cpu: index of the physical processor that issued the reference.
        pid: identifier of the process that was running on ``cpu``.
        access: the reference type (instruction fetch, data read, data write).
        address: byte address referenced.
        is_lock_spin: True when the reference is a spin read on a lock
            (the "test" in test-and-test-and-set).
        is_os: True when the reference was issued by operating-system code.
    """

    cpu: int
    pid: int
    access: AccessType
    address: int
    is_lock_spin: bool = False
    is_os: bool = False

    def block(self, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
        """Return the block number this reference falls in."""
        return block_of(self.address, block_size)

    @property
    def is_instruction(self) -> bool:
        return self.access is AccessType.INSTR

    @property
    def is_read(self) -> bool:
        return self.access is AccessType.READ

    @property
    def is_write(self) -> bool:
        return self.access is AccessType.WRITE


def check_block_size(block_size: int) -> None:
    """Reject a block size that maps no address to a block."""
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")


def block_of(address: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Map a byte address to its block number."""
    check_block_size(block_size)
    return address // block_size
