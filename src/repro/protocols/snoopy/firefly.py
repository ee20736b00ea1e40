"""The DEC Firefly snoopy protocol (the paper's reference [3]).

Like Dragon, Firefly is **update-based**: writes to shared blocks broadcast
the new word instead of invalidating copies, so shared data never
ping-pongs.  The crucial difference from Dragon: Firefly's shared-write
goes **through to memory as well** (the update transaction writes both the
sibling caches and main memory), so *memory never goes stale for shared
blocks*.  A dirty block exists only while its holder is the sole cache;
the moment a second cache reads it, the owner supplies the data and memory
is updated — after which all misses are served by memory.

Consequences visible in the cost model:

* ``wh-distrib`` updates cost a write-through (memory is in the update
  path), identical in cycles to WTI's writes on both buses;
* ``rm-blk-drty`` can only happen against a sole dirty copy, and it
  transitions the block to everywhere-clean.
"""

from __future__ import annotations

from typing import Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER
from ..base import AccessOutcome, CoherenceProtocol
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["Firefly"]

class Firefly(CoherenceProtocol):
    """Update-based snoopy protocol with write-through for shared blocks."""

    name = "firefly"
    label = "Firefly"
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
            # The owner supplies the block and memory is updated in the same
            # transaction; the block is clean-shared from now on.
            sharing.clear_dirty(block)
            sharing.add_holder(block, cache)
            return AccessOutcome(
                event=Event.RM_BLK_DIRTY,
                ops=((BusOp.FLUSH_REQUEST, 1), (BusOp.WRITE_BACK, 1)),
            )
        if sharing.remote_holders(block, cache):
            # Caches assert the shared line and supply the data jointly.
            sharing.add_holder(block, cache)
            return AccessOutcome(
                event=Event.RM_BLK_CLEAN, ops=((BusOp.CACHE_SUPPLY, 1),)
            )
        sharing.add_holder(block, cache)
        return AccessOutcome(event=Event.RM_UNCACHED, ops=((BusOp.MEM_ACCESS, 1),))

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            if sharing.remote_holders(block, cache):
                # Shared write: one word to the sibling caches AND memory,
                # so the block stays clean everywhere.
                sharing.clear_dirty(block)
                return AccessOutcome(
                    event=Event.WH_DISTRIB, ops=((BusOp.WRITE_THROUGH, 1),)
                )
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WH_LOCAL)
        if first_ref:
            sharing.add_holder(block, cache)
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WM_FIRST_REF)
        # Write miss: fetch (cache-supplied when shared), then the write
        # behaves as above.
        owner = self._remote_dirty_owner(cache, block)
        remote = sharing.remote_holders(block, cache)
        if owner != NO_OWNER:
            event = Event.WM_BLK_DIRTY
            ops = [(BusOp.FLUSH_REQUEST, 1), (BusOp.WRITE_BACK, 1)]
            sharing.clear_dirty(block)
        elif remote:
            event = Event.WM_BLK_CLEAN
            ops = [(BusOp.CACHE_SUPPLY, 1)]
        else:
            event = Event.WM_UNCACHED
            ops = [(BusOp.MEM_ACCESS, 1)]
        sharing.add_holder(block, cache)
        if sharing.remote_holders(block, cache):
            ops.append((BusOp.WRITE_THROUGH, 1))
        else:
            sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=tuple(ops))

    def compile_table(self) -> Optional[TransitionTable]:
        return derive_table(self)
