"""Sharing-pattern classification of trace blocks.

The paper explains its results through sharing structure — lock spinning,
read sharing, "most blocks that are written into are present in only a
small number of other caches" — without naming the patterns.  The follow-on
literature (Weber & Gupta's invalidation-pattern taxonomy, Agarwal's later
work) made the categories explicit; this module classifies every data block
of a trace into that vocabulary:

``PRIVATE``
    touched by a single process only — the bulk of all blocks.
``READ_ONLY``
    shared but never written (code tables, netlists).
``SYNCHRONIZATION``
    lock words: dominated by marked spin reads with multiple writers.
``PRODUCER_CONSUMER``
    written by exactly one process, read by others (mailboxes).
``MIGRATORY``
    written by several processes, but each writer read or wrote the block
    immediately before (read-modify-write hand-offs) — the pattern that
    makes a single invalidation cover most writes.
``READ_WRITE``
    everything else: irregular multi-writer sharing.

The summary explains *why* the paper's Figure 1 looks the way it does: the
classes map directly onto invalidation fan-outs (private/migratory -> 0-1,
producer/consumer -> #consumers, synchronisation -> #spinners).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Set

from .record import DEFAULT_BLOCK_SIZE, AccessType, TraceRecord, check_block_size

__all__ = ["BlockClass", "BlockProfile", "SharingProfile", "classify_blocks"]


class BlockClass(enum.Enum):
    PRIVATE = "private"
    READ_ONLY = "read-only"
    SYNCHRONIZATION = "synchronization"
    PRODUCER_CONSUMER = "producer-consumer"
    MIGRATORY = "migratory"
    READ_WRITE = "read-write"


@dataclass
class BlockProfile:
    """Per-block access statistics gathered in one pass."""

    block: int
    readers: Set[int] = field(default_factory=set)
    writers: Set[int] = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    spin_reads: int = 0
    #: writes whose writer was also the most recent previous accessor
    #: (evidence of read-modify-write hand-offs)
    chained_writes: int = 0
    _last_accessor: int = field(default=-1, repr=False)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def sharers(self) -> Set[int]:
        return self.readers | self.writers

    def note(self, pid: int, access: AccessType, is_spin: bool) -> None:
        if access is AccessType.READ:
            self.reads += 1
            self.readers.add(pid)
            if is_spin:
                self.spin_reads += 1
        else:
            self.writes += 1
            self.writers.add(pid)
            if self._last_accessor == pid:
                self.chained_writes += 1
        self._last_accessor = pid

    def classify(self) -> BlockClass:
        if len(self.sharers) <= 1:
            return BlockClass.PRIVATE
        if not self.writers:
            return BlockClass.READ_ONLY
        if self.spin_reads > 0.5 * self.reads and len(self.writers) > 1:
            return BlockClass.SYNCHRONIZATION
        if len(self.writers) == 1:
            return BlockClass.PRODUCER_CONSUMER
        if self.writes and self.chained_writes >= 0.6 * self.writes:
            return BlockClass.MIGRATORY
        return BlockClass.READ_WRITE


@dataclass(frozen=True)
class SharingProfile:
    """Whole-trace sharing composition."""

    block_counts: Mapping[BlockClass, int]
    access_counts: Mapping[BlockClass, int]
    total_blocks: int
    total_accesses: int

    def block_share(self, block_class: BlockClass) -> float:
        if self.total_blocks == 0:
            return 0.0
        return self.block_counts.get(block_class, 0) / self.total_blocks

    def access_share(self, block_class: BlockClass) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.access_counts.get(block_class, 0) / self.total_accesses

    def render(self) -> str:
        lines = [
            "Sharing composition (data blocks / data accesses):",
            f"  {'class':<18} {'blocks':>8} {'%blk':>6} {'accesses':>10} {'%acc':>6}",
        ]
        for block_class in BlockClass:
            blocks = self.block_counts.get(block_class, 0)
            accesses = self.access_counts.get(block_class, 0)
            lines.append(
                f"  {block_class.value:<18} {blocks:>8} "
                f"{100 * self.block_share(block_class):>5.1f}% "
                f"{accesses:>10} {100 * self.access_share(block_class):>5.1f}%"
            )
        return "\n".join(lines)


def classify_blocks(
    trace: Iterable[TraceRecord],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Dict[int, BlockProfile]:
    """One-pass per-block access profiling (data references only)."""
    check_block_size(block_size)
    profiles: Dict[int, BlockProfile] = {}
    for record in trace:
        if record.access is AccessType.INSTR:
            continue
        block = record.address // block_size
        profile = profiles.get(block)
        if profile is None:
            profile = BlockProfile(block=block)
            profiles[block] = profile
        profile.note(record.pid, record.access, record.is_lock_spin)
    return profiles


def sharing_profile(profiles: Dict[int, BlockProfile]) -> SharingProfile:
    """Aggregate per-block profiles into the trace-level composition."""
    block_counts: Dict[BlockClass, int] = {}
    access_counts: Dict[BlockClass, int] = {}
    total_accesses = 0
    for profile in profiles.values():
        block_class = profile.classify()
        block_counts[block_class] = block_counts.get(block_class, 0) + 1
        access_counts[block_class] = (
            access_counts.get(block_class, 0) + profile.accesses
        )
        total_accesses += profile.accesses
    return SharingProfile(
        block_counts=block_counts,
        access_counts=access_counts,
        total_blocks=len(profiles),
        total_accesses=total_accesses,
    )
