"""A coherence oracle: value-level validation of any protocol.

The simulator's protocols manipulate *state*, not data.  This oracle layers
data on top: every write stamps a block with a fresh version number, every
cached copy and main memory remember the version they hold, and every
**read hit must observe the latest version** — the definition of coherence
the paper opens with ("all copies of a main memory location ... remain
consistent when the contents of that memory location are modified").

The oracle is protocol-agnostic.  It watches the sharing table before and
after each access to infer copy acquisition and invalidation, and watches
the emitted bus operations to track where data actually travelled:

* a ``WRITE_THROUGH`` makes memory current;
* a ``WRITE_BACK`` makes memory current and hands the requester the data
  (snarfing);
* a ``CACHE_SUPPLY`` hands the requester the owner's current data;
* a plain ``MEM_ACCESS`` hands the requester *whatever memory holds* — if a
  protocol forgets to flush a dirty owner first, the requester receives a
  stale version and the next read hit raises :class:`CoherenceViolation`;
* holders surviving a remote write in an update protocol received the new
  word (that is what the update broadcast does).

A protocol bug — forgetting to invalidate a sharer, skipping a flush,
resurrecting a stale copy — surfaces as a violation within a few accesses,
which is what the property-based tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..interconnect.bus import BusOp
from ..protocols.base import CoherenceProtocol
from ..trace.record import DEFAULT_BLOCK_SIZE, AccessType, TraceRecord
from ..trace.stream import SharingModel

__all__ = ["CoherenceViolation", "CoherenceOracle", "OracleReport", "validate_coherence"]


class CoherenceViolation(AssertionError):
    """A cache observed (or retained) a stale copy of a block."""


@dataclass(frozen=True)
class OracleReport:
    """Summary of a validated run."""

    references: int
    writes: int
    copies_checked: int


class CoherenceOracle:
    """Wraps a protocol and validates data coherence access by access."""

    def __init__(self, protocol: CoherenceProtocol) -> None:
        self.protocol = protocol
        #: latest version written per block (0 = never written)
        self._latest: Dict[int, int] = {}
        #: version currently stored in main memory
        self._memory: Dict[int, int] = {}
        #: version held by each (cache, block) copy
        self._copy_version: Dict[Tuple[int, int], int] = {}
        self.copies_checked = 0
        self.writes = 0

    def access(self, cache: int, access: AccessType, block: int):
        """Forward one access to the protocol, validating coherence."""
        protocol = self.protocol
        sharing = protocol.sharing
        held_before = sharing.is_held(block, cache)
        holders_before = sharing.holders(block)

        if access is AccessType.READ and held_before:
            self._check_current(cache, block, "read hit")

        outcome = protocol.access(cache, access, block)
        ops = {op for op, _count in outcome.ops}
        holders_after = sharing.holders(block)
        latest = self._latest.get(block, 0)

        # Data movement implied by the bus operations.
        if BusOp.WRITE_BACK in ops:
            # The dirty owner's (current) data went to memory.
            self._memory[block] = latest
        if not held_before and sharing.is_held(block, cache):
            # The requester obtained a copy: from the owner (a supply or a
            # snarfed write-back) it is current; from memory it is whatever
            # memory holds — which is stale exactly when a dirty owner was
            # skipped, and the next read hit will flag it.
            owner_supplied = bool(ops & {BusOp.WRITE_BACK, BusOp.CACHE_SUPPLY})
            fetched = latest if owner_supplied else self._memory.get(block, 0)
            self._copy_version[(cache, block)] = fetched

        if access is AccessType.WRITE:
            self.writes += 1
            version = latest + 1
            self._latest[block] = version
            self._copy_version[(cache, block)] = version
            if BusOp.WRITE_THROUGH in ops:
                self._memory[block] = version
            # Update protocols keep other holders' copies current — but only
            # if a word actually went out on the bus (a write update or a
            # write-through the snoopers observe).  A broken invalidation
            # protocol that silently leaves sharers behind gets no credit,
            # and their stale copies are flagged on the next read.
            word_broadcast = bool(
                ops & {BusOp.WRITE_UPDATE, BusOp.WRITE_THROUGH}
            )
            if word_broadcast:
                survivors = holders_before & holders_after & ~(1 << cache)
                index = 0
                while survivors:
                    if survivors & 1:
                        self._copy_version[(index, block)] = version
                    survivors >>= 1
                    index += 1

        # Drop bookkeeping for copies the protocol invalidated.
        removed = holders_before & ~holders_after
        index = 0
        while removed:
            if removed & 1:
                self._copy_version.pop((index, block), None)
            removed >>= 1
            index += 1
        return outcome

    def evict(self, cache: int, block: int):
        """Forward a displacement; a write-back carries the victim's copy home."""
        ops = self.protocol.evict(cache, block)
        version = self._copy_version.pop((cache, block), 0)
        if any(op is BusOp.WRITE_BACK for op, _count in ops):
            self._memory[block] = version
        return ops

    def memory_current(self, block: int) -> bool:
        """Whether main memory holds the latest version of ``block``."""
        return self._memory.get(block, 0) == self._latest.get(block, 0)

    def _check_current(self, cache: int, block: int, context: str) -> None:
        self.copies_checked += 1
        held = self._copy_version.get((cache, block), 0)
        latest = self._latest.get(block, 0)
        if held != latest:
            raise CoherenceViolation(
                f"{context}: cache {cache} holds version {held} of block "
                f"{block:#x} but the latest write is version {latest} "
                f"(protocol {self.protocol.name})"
            )

    def check_all_copies(self) -> None:
        """Assert every currently cached copy is current (end-of-run sweep)."""
        for (cache, block), version in list(self._copy_version.items()):
            if not self.protocol.sharing.is_held(block, cache):
                continue
            self.copies_checked += 1
            latest = self._latest.get(block, 0)
            if version != latest:
                raise CoherenceViolation(
                    f"final sweep: cache {cache} holds version {version} of "
                    f"block {block:#x}, latest is {latest} "
                    f"(protocol {self.protocol.name})"
                )


def validate_coherence(
    protocol: CoherenceProtocol,
    trace: Iterable[TraceRecord],
    block_size: int = DEFAULT_BLOCK_SIZE,
    sharing_model: SharingModel = SharingModel.PROCESS,
) -> OracleReport:
    """Replay a trace through the oracle; raise on any stale read.

    This is the unified reference pipeline with ``check_values=True`` — the
    same feed loop as :func:`~repro.core.simulator.simulate`, with every
    access routed through the oracle.  Returns a report with how many copy
    checks the run performed.
    """
    from .counters import SimulationCounters
    from .pipeline import ReferencePipeline

    pipeline = ReferencePipeline(
        protocol,
        block_size=block_size,
        sharing_model=sharing_model,
        check_values=True,
    )
    counters = SimulationCounters()
    pipeline.feed(trace, counters)
    oracle = pipeline.oracle
    oracle.check_all_copies()
    return OracleReport(
        references=counters.references,
        writes=oracle.writes,
        copies_checked=oracle.copies_checked,
    )
