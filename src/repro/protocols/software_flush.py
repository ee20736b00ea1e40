"""A software cache-consistency scheme (the paper's Section 5.2 aside).

"Software cache consistency schemes that flush a critical section from the
cache after each use will behave like the Dir1NB scheme.  For reasonable
performance, these schemes must take special care in handling locks."

This class makes that remark concrete: coherence is maintained not by
hardware messages but by compiler/runtime-inserted flushes, so at most one
cache holds a (shared) block at a time — exactly Dir1NB's state-change
specification.  The *costs* differ from Dir1NB in one way: removing the old
copy is a local cache-management instruction, not a bus message, so no
``INVALIDATE`` cycles are charged; dirty data still has to be written back
through memory before the next processor may read it (there is no
cache-to-cache path at all in a software scheme).

The Section 5.2 conclusion follows immediately: under spin locks this
scheme inherits Dir1NB's lock-block ping-pong, with every bounce paying a
full memory round trip.
"""

from __future__ import annotations

from ..interconnect.bus import BusOp
from ..memory.sharing import NO_OWNER
from .base import AccessOutcome
from .directory.dir1nb import Dir1NB
from .events import Event

__all__ = ["SoftwareFlush"]


class SoftwareFlush(Dir1NB):
    """Software-managed consistency: flush-on-handoff, single copy."""

    name = "softflush"
    label = "SoftFlush"
    kind = "software"

    def _take_over(
        self, cache: int, block: int, dirty_after: bool, write: bool
    ) -> AccessOutcome:
        """Move the sole copy without hardware invalidation messages.

        The previous holder flushed the block itself (a local instruction);
        dirty data goes back through memory, after which the requester
        fetches from memory — a software scheme cannot snarf the write-back.
        """
        sharing = self.sharing
        owner = sharing.dirty_owner(block)
        remote = sharing.remote_holders(block, cache)
        if remote == 0:
            event = Event.WM_UNCACHED if write else Event.RM_UNCACHED
            ops = ((BusOp.MEM_ACCESS, 1),)
        elif owner != NO_OWNER:
            event = Event.WM_BLK_DIRTY if write else Event.RM_BLK_DIRTY
            # Write the dirty data back, then fetch it from memory: two full
            # transactions, no snarfing.
            ops = ((BusOp.WRITE_BACK, 1), (BusOp.MEM_ACCESS, 1))
        else:
            event = Event.WM_BLK_CLEAN if write else Event.RM_BLK_CLEAN
            ops = ((BusOp.MEM_ACCESS, 1),)
        sharing.purge(block)
        sharing.add_holder(block, cache)
        if dirty_after:
            sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=ops)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """No hardware directory at all."""
        return 0
