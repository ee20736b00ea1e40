"""Goodman's Write-Once snoopy protocol (the paper's reference [2]).

The first snoopy protocol published, and the origin of the "write-once"
trick: the *first* write to a clean block is written through — the single
bus word both updates memory and invalidates the other cached copies — and
the block enters the **reserved** state (clean, memory-consistent, sole
copy).  A *second* write upgrades reserved to dirty locally, with no bus
traffic; thereafter the cache owns the block copy-back style.

Costs relative to the paper's schemes: Write-Once pays one word of
write-through per write-run (where Dir0B pays a directory check +
invalidate and WTI pays a word per write), so it lands between the two.

State tracking: the system-wide :class:`SharingTable` carries holders and
the dirty owner; the reserved owner (clean but known-sole after a
write-through) is a per-block annotation here.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER, bit_count
from ..base import AccessOutcome, CoherenceProtocol, OpList
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["WriteOnce"]

class WriteOnce(CoherenceProtocol):
    """Goodman's write-once protocol: write through once, then copy back."""

    name = "writeonce"
    label = "WriteOnce"
    kind = "snoopy"

    def __init__(self, n_caches: int) -> None:
        super().__init__(n_caches)
        #: block -> cache holding it in the reserved state
        self._reserved: Dict[int, int] = {}

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            return AccessOutcome(event=Event.RM_FIRST_REF)
        self._reserved.pop(block, None)  # any reserved copy is sole no more
        owner = self._remote_dirty_owner(cache, block)
        if owner != NO_OWNER:
            # The owner supplies the block and memory is updated in the same
            # transfer (Goodman's scheme); both copies end up valid/clean.
            sharing.clear_dirty(block)
            sharing.add_holder(block, cache)
            return AccessOutcome(
                event=Event.RM_BLK_DIRTY,
                ops=((BusOp.FLUSH_REQUEST, 1), (BusOp.WRITE_BACK, 1)),
            )
        event = (
            Event.RM_BLK_CLEAN
            if sharing.remote_holders(block, cache)
            else Event.RM_UNCACHED
        )
        sharing.add_holder(block, cache)
        return AccessOutcome(event=event, ops=((BusOp.MEM_ACCESS, 1),))

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            if sharing.is_dirty_in(block, cache):
                return AccessOutcome(event=Event.WH_BLK_DIRTY)
            if self._reserved.get(block) == cache:
                # Second write: reserved -> dirty, purely local.
                sharing.set_dirty(block, cache)
                del self._reserved[block]
                return AccessOutcome(
                    event=Event.WH_BLK_CLEAN, ops=(), invalidation_fanout=0
                )
            # First write to a valid block: one word written through; the
            # snoopers invalidate their copies as it goes by.
            remote = sharing.remote_holders(block, cache)
            fanout = bit_count(remote)
            if remote:
                sharing.set_only_holder(block, cache)
            self._reserved[block] = cache
            return AccessOutcome(
                event=Event.WH_BLK_CLEAN,
                ops=((BusOp.WRITE_THROUGH, 1),),
                invalidation_fanout=fanout,
            )
        if first_ref:
            sharing.add_holder(block, cache)
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WM_FIRST_REF)
        return self._write_miss(cache, block)

    def _write_miss(self, cache: int, block: int) -> AccessOutcome:
        sharing = self.sharing
        self._reserved.pop(block, None)
        owner = self._remote_dirty_owner(cache, block)
        if owner != NO_OWNER:
            ops: OpList = ((BusOp.FLUSH_REQUEST, 1), (BusOp.WRITE_BACK, 1))
            event = Event.WM_BLK_DIRTY
            fanout = None
        else:
            remote = sharing.remote_holders(block, cache)
            fanout = bit_count(remote)
            ops = ((BusOp.MEM_ACCESS, 1),)
            event = Event.WM_BLK_CLEAN if remote else Event.WM_UNCACHED
        # Read-with-intent-to-modify: the miss transaction invalidates the
        # other copies as the snoopers observe it.
        sharing.purge(block)
        sharing.add_holder(block, cache)
        sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=ops, invalidation_fanout=fanout)

    def evict(self, cache: int, block: int) -> OpList:
        if self._reserved.get(block) == cache:
            del self._reserved[block]
        return super().evict(cache, block)

    def block_state(self, block: int):
        return super().block_state(block) + (self._reserved.get(block),)

    def compile_table(self) -> Optional[TransitionTable]:
        # The reserved state is the table's aux column.
        return derive_table(self, aux=self._reserved)
