"""The Berkeley Ownership snoopy protocol.

Berkeley (Katz et al., the paper's reference [7]) is an invalidation,
copy-back protocol with **ownership**: the cache that last wrote a block
owns it and supplies it on other caches' misses, *without* updating main
memory — a dirty block read by another cache leaves the owner in an
owned-shared state rather than forcing a flush to memory.

Its state-change specification is the familiar multiple-clean / single-
writer model, so its event frequencies match Dir0B (the paper estimates
Berkeley's cost from the Dir0B frequencies by zeroing the directory-check
cost).  This class implements the state machine directly; differences from
Dir0B's costs are

* no directory checks at all (snooping replaces them);
* misses on owned blocks are supplied cache-to-cache with no write-back
  (a :data:`BusOp.CACHE_SUPPLY`, which on the pipelined bus costs the same
  as the flush-and-snarf — the paper's footnote that the optimisation "does
  not impact our performance metric in the pipelined bus");
* a write hit to a non-exclusive block raises a one-cycle bus invalidation
  signal unconditionally, because without a directory the writer cannot know
  whether copies exist.
"""

from __future__ import annotations

from typing import Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER, bit_count
from ..base import AccessOutcome, CoherenceProtocol
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["Berkeley"]

class Berkeley(CoherenceProtocol):
    """Ownership-based snoopy protocol (Berkeley)."""

    name = "berkeley"
    label = "Berkeley"
    kind = "snoopy"

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            return AccessOutcome(event=Event.RM_FIRST_REF)
        owner = self._remote_dirty_owner(cache, block)
        if owner != NO_OWNER:
            # Owner supplies the block and stays owner (owned-shared);
            # memory remains stale.
            sharing.add_holder(block, cache)
            return AccessOutcome(
                event=Event.RM_BLK_DIRTY, ops=((BusOp.CACHE_SUPPLY, 1),)
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
            remote = sharing.remote_holders(block, cache)
            if sharing.is_dirty_in(block, cache) and not remote:
                # Owned exclusively: write locally.
                return AccessOutcome(event=Event.WH_BLK_DIRTY)
            # Unowned, or owned-shared: claim exclusive ownership with a
            # one-cycle invalidation signal on the bus.  The signal is sent
            # even when no other copies exist, because the cache cannot tell.
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
        # Write miss: read-for-ownership.  The single bus transaction both
        # fetches the data (from the owner if any, else memory) and
        # invalidates all other copies.
        owner = self._remote_dirty_owner(cache, block)
        remote = sharing.remote_holders(block, cache)
        if owner != NO_OWNER:
            event = Event.WM_BLK_DIRTY
            ops = ((BusOp.CACHE_SUPPLY, 1),)
            fanout = None
        elif remote:
            event = Event.WM_BLK_CLEAN
            ops = ((BusOp.MEM_ACCESS, 1),)
            fanout = bit_count(remote)
        else:
            event = Event.WM_UNCACHED
            ops = ((BusOp.MEM_ACCESS, 1),)
            fanout = 0
        sharing.purge(block)
        sharing.add_holder(block, cache)
        sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=ops, invalidation_fanout=fanout)

    def compile_table(self) -> Optional[TransitionTable]:
        return derive_table(self)
