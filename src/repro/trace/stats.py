"""Trace characterisation, reproducing the paper's Table 3.

Table 3 summarises each trace by total references, instruction fetches, data
reads, data writes, and the user/system split (all in thousands).  This module
computes those columns plus a few derived quantities the paper quotes in the
text: the read-to-write ratio, the fraction of reads that are lock spins
(roughly one third in POPS and THOR), and the fraction of OS activity
(roughly 10%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

from .record import AccessType, DEFAULT_BLOCK_SIZE, TraceRecord, check_block_size

__all__ = ["TraceStats", "collect_stats"]


@dataclass(frozen=True)
class TraceStats:
    """Aggregate characteristics of one multiprocessor trace.

    Counts are raw reference counts; use :meth:`thousands` for the Table 3
    presentation.
    """

    name: str
    total: int
    instructions: int
    data_reads: int
    data_writes: int
    user: int
    system: int
    lock_spin_reads: int
    distinct_blocks: int
    shared_blocks: int
    processes: int
    processors: int

    @property
    def data_refs(self) -> int:
        return self.data_reads + self.data_writes

    @property
    def read_write_ratio(self) -> float:
        """Data reads per data write (Section 4.4 notes this is high)."""
        if self.data_writes == 0:
            return float("inf")
        return self.data_reads / self.data_writes

    @property
    def lock_spin_fraction_of_reads(self) -> float:
        """Fraction of data reads that are lock-spin tests."""
        if self.data_reads == 0:
            return 0.0
        return self.lock_spin_reads / self.data_reads

    @property
    def os_fraction(self) -> float:
        """Fraction of all references issued by the operating system."""
        if self.total == 0:
            return 0.0
        return self.system / self.total

    @property
    def shared_block_fraction(self) -> float:
        """Fraction of distinct data blocks touched by more than one process."""
        if self.distinct_blocks == 0:
            return 0.0
        return self.shared_blocks / self.distinct_blocks

    def thousands(self) -> Dict[str, float]:
        """The Table 3 row for this trace: counts in thousands."""
        return {
            "Trace": self.name,
            "Refs": self.total / 1000.0,
            "Instr": self.instructions / 1000.0,
            "DRd": self.data_reads / 1000.0,
            "DWrt": self.data_writes / 1000.0,
            "User": self.user / 1000.0,
            "Sys": self.system / 1000.0,
        }


def collect_stats(
    trace: Iterable[TraceRecord],
    name: str = "trace",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> TraceStats:
    """Single-pass trace characterisation.

    Sharing is classified at process level (Section 4.4): a data block is
    *shared* if more than one process references it.
    """
    check_block_size(block_size)
    total = instructions = reads = writes = user = system = spins = 0
    block_owner: Dict[int, int] = {}
    shared: Set[int] = set()
    pids: Set[int] = set()
    cpus: Set[int] = set()

    for record in trace:
        total += 1
        pids.add(record.pid)
        cpus.add(record.cpu)
        if record.is_os:
            system += 1
        else:
            user += 1
        if record.access is AccessType.INSTR:
            instructions += 1
            continue
        if record.access is AccessType.READ:
            reads += 1
            if record.is_lock_spin:
                spins += 1
        else:
            writes += 1
        block = record.address // block_size
        owner = block_owner.get(block)
        if owner is None:
            block_owner[block] = record.pid
        elif owner != record.pid:
            shared.add(block)

    return TraceStats(
        name=name,
        total=total,
        instructions=instructions,
        data_reads=reads,
        data_writes=writes,
        user=user,
        system=system,
        lock_spin_reads=spins,
        distinct_blocks=len(block_owner),
        shared_blocks=len(shared),
        processes=len(pids),
        processors=len(cpus),
    )


def format_table3(rows: Iterable[TraceStats]) -> str:
    """Render Table 3 ("Summary of trace characteristics") as text."""
    header = ("Trace", "Refs", "Instr", "DRd", "DWrt", "User", "Sys")
    lines = ["{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}".format(*header)]
    for stats in rows:
        row = stats.thousands()
        lines.append(
            "{:<8} {:>8.0f} {:>8.0f} {:>8.0f} {:>8.0f} {:>8.0f} {:>8.0f}".format(
                row["Trace"], row["Refs"], row["Instr"], row["DRd"],
                row["DWrt"], row["User"], row["Sys"],
            )
        )
    return "\n".join(lines)
