"""The Illinois (MESI) snoopy protocol (the paper's reference [5]).

Papamarcos & Patel's four-state protocol: **M**odified, **E**xclusive
(clean, sole copy), **S**hared, **I**nvalid.  Its two signature
optimisations relative to simpler invalidation schemes:

* a read miss that no other cache can serve installs the block *exclusive*,
  so the first write to it needs no bus transaction at all;
* cache-to-cache transfers: whenever any cache holds the block, a cache —
  not memory — supplies it (a dirty supplier writes memory back in the same
  transaction, M -> S).

The exclusive state needs per-block tracking beyond the holder mask (an
E copy is clean but known-sole); it is kept here like Write-Once's
reserved state.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER, bit_count
from ..base import AccessOutcome, CoherenceProtocol, OpList
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["Illinois"]

class Illinois(CoherenceProtocol):
    """MESI with cache-to-cache supply (Illinois protocol)."""

    name = "illinois"
    label = "Illinois"
    kind = "snoopy"

    def __init__(self, n_caches: int) -> None:
        super().__init__(n_caches)
        #: block -> cache holding it Exclusive (clean and sole)
        self._exclusive: Dict[int, int] = {}

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            self._exclusive[block] = cache
            return AccessOutcome(event=Event.RM_FIRST_REF)
        self._exclusive.pop(block, None)  # the copy is about to be shared
        owner = self._remote_dirty_owner(cache, block)
        if owner != NO_OWNER:
            # M -> S: the owner supplies the block and memory is written
            # back in the same transaction.
            sharing.clear_dirty(block)
            sharing.add_holder(block, cache)
            return AccessOutcome(
                event=Event.RM_BLK_DIRTY,
                ops=((BusOp.FLUSH_REQUEST, 1), (BusOp.WRITE_BACK, 1)),
            )
        if sharing.remote_holders(block, cache):
            # Cache-to-cache transfer even for clean blocks.
            sharing.add_holder(block, cache)
            return AccessOutcome(
                event=Event.RM_BLK_CLEAN, ops=((BusOp.CACHE_SUPPLY, 1),)
            )
        sharing.add_holder(block, cache)
        self._exclusive[block] = cache
        return AccessOutcome(event=Event.RM_UNCACHED, ops=((BusOp.MEM_ACCESS, 1),))

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            if sharing.is_dirty_in(block, cache):
                return AccessOutcome(event=Event.WH_BLK_DIRTY)
            if self._exclusive.get(block) == cache:
                # E -> M silently: the whole point of the exclusive state.
                sharing.set_dirty(block, cache)
                del self._exclusive[block]
                return AccessOutcome(
                    event=Event.WH_BLK_CLEAN, ops=(), invalidation_fanout=0
                )
            # S -> M: one bus invalidation signal.
            remote = sharing.remote_holders(block, cache)
            fanout = bit_count(remote)
            sharing.set_only_holder(block, cache)
            sharing.set_dirty(block, cache)
            return AccessOutcome(
                event=Event.WH_BLK_CLEAN,
                ops=((BusOp.BROADCAST_INVALIDATE, 1),),
                invalidation_fanout=fanout,
            )
        if first_ref:
            sharing.add_holder(block, cache)
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WM_FIRST_REF)
        return self._write_miss(cache, block)

    def _write_miss(self, cache: int, block: int) -> AccessOutcome:
        sharing = self.sharing
        self._exclusive.pop(block, None)
        owner = self._remote_dirty_owner(cache, block)
        remote = sharing.remote_holders(block, cache)
        if owner != NO_OWNER:
            ops: OpList = ((BusOp.FLUSH_REQUEST, 1), (BusOp.WRITE_BACK, 1))
            event = Event.WM_BLK_DIRTY
            fanout = None
        elif remote:
            ops = ((BusOp.CACHE_SUPPLY, 1),)
            event = Event.WM_BLK_CLEAN
            fanout = bit_count(remote)
        else:
            ops = ((BusOp.MEM_ACCESS, 1),)
            event = Event.WM_UNCACHED
            fanout = 0
        sharing.purge(block)
        sharing.add_holder(block, cache)
        sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=ops, invalidation_fanout=fanout)

    def evict(self, cache: int, block: int) -> OpList:
        if self._exclusive.get(block) == cache:
            del self._exclusive[block]
        return super().evict(cache, block)

    def block_state(self, block: int):
        return super().block_state(block) + (self._exclusive.get(block),)

    def compile_table(self) -> Optional[TransitionTable]:
        # The Exclusive state is the table's aux column.
        return derive_table(self, aux=self._exclusive)
