"""Dir1NB: one pointer, no broadcast — a block lives in at most one cache.

The most restrictive scheme the paper evaluates (Section 3): the directory
entry is a single pointer to the cache holding the block, so there can be no
inconsistency across caches.  Every miss moves the (sole) copy: the current
holder is invalidated — after writing the block back if dirty — and the
requester becomes the new holder.

Write hits never use the bus: the holder is by construction the only copy,
and the dirty bit lives in the cache, so the directory need not be told
(Table 5's note: "directory accesses can always be overlapped with memory
accesses in Dir1NB").

Read sharing is this scheme's weakness: two processes spinning on the same
lock bounce the lock block back and forth on every test read (Section 5.2).
"""

from __future__ import annotations

import math
from typing import Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER
from ..base import AccessOutcome, CoherenceProtocol
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["Dir1NB"]


class Dir1NB(CoherenceProtocol):
    """Single-pointer, no-broadcast directory protocol."""

    name = "dir1nb"
    label = "Dir1NB"
    kind = "directory"

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            return AccessOutcome(event=Event.RM_FIRST_REF)
        return self._take_over(cache, block, dirty_after=False, write=False)

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            # Sole copy by construction; the dirty bit is set locally.
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WRITE_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WM_FIRST_REF)
        return self._take_over(cache, block, dirty_after=True, write=True)

    def _take_over(
        self, cache: int, block: int, dirty_after: bool, write: bool
    ) -> AccessOutcome:
        """Move the sole copy of ``block`` to ``cache``."""
        sharing = self.sharing
        owner = sharing.dirty_owner(block)
        remote = sharing.remote_holders(block, cache)
        if remote == 0:
            # Only possible if the block has never been cached; once cached,
            # a block always has exactly one holder under this scheme.
            event = Event.WM_UNCACHED if write else Event.RM_UNCACHED
            ops = ((BusOp.MEM_ACCESS, 1), (BusOp.DIR_CHECK_OVERLAPPED, 1))
        elif owner != NO_OWNER:
            event = Event.WM_BLK_DIRTY if write else Event.RM_BLK_DIRTY
            ops = (
                (BusOp.FLUSH_REQUEST, 1),
                (BusOp.WRITE_BACK, 1),
                (BusOp.INVALIDATE, 1),
                (BusOp.DIR_CHECK_OVERLAPPED, 1),
            )
        else:
            event = Event.WM_BLK_CLEAN if write else Event.RM_BLK_CLEAN
            ops = (
                (BusOp.MEM_ACCESS, 1),
                (BusOp.INVALIDATE, 1),
                (BusOp.DIR_CHECK_OVERLAPPED, 1),
            )
        sharing.purge(block)
        sharing.add_holder(block, cache)
        if dirty_after:
            sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=ops)

    def compile_table(self) -> Optional[TransitionTable]:
        return derive_table(self)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """A cache pointer plus a cached/uncached valid bit."""
        return max(1, math.ceil(math.log2(n_caches))) + 1
