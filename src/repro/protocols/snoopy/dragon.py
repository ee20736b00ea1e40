"""The Dragon update-based snoopy protocol.

Dragon maintains consistency "by updating stale cached data with the new
value rather than by invalidating" (Section 3): a write hit to a block other
caches also hold broadcasts a single-word **write update** on the bus; the
copies are never removed.  A special *shared line* tells a writer whether
any other cache holds the block, so writes to unshared blocks stay local.

With infinite caches this means a block, once loaded, stays loaded forever —
miss rates are the native (first-fetch-per-cache) rates, and the dominant
cost is the stream of write updates (``wh-distrib`` in Table 4, about
one-sixth of all writes on the paper's traces).  Memory is not updated by
write updates, so a block that has ever been written is supplied
cache-to-cache on subsequent misses (the last writer owns it).

The paper treats Dragon as the best-performing snoopy scheme and uses it as
the yardstick the directory schemes must approach.
"""

from __future__ import annotations

from typing import Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER
from ..base import AccessOutcome, CoherenceProtocol
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["Dragon"]

class Dragon(CoherenceProtocol):
    """Update-based snoopy protocol."""

    name = "dragon"
    label = "Dragon"
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
            # The owning cache supplies the block directly; memory stays
            # stale and the owner keeps ownership (shared-dirty).
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
            if sharing.remote_holders(block, cache):
                # The shared line is raised: broadcast a one-word update.
                # The writer becomes the owner; nobody is invalidated.
                sharing.set_dirty(block, cache)
                return AccessOutcome(
                    event=Event.WH_DISTRIB, ops=((BusOp.WRITE_UPDATE, 1),)
                )
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WH_LOCAL)
        if first_ref:
            sharing.add_holder(block, cache)
            sharing.set_dirty(block, cache)
            return AccessOutcome(event=Event.WM_FIRST_REF)
        # Write miss: fetch the block (from the owner if one exists), then
        # update the other copies if the block is shared.
        owner = self._remote_dirty_owner(cache, block)
        shared = bool(sharing.remote_holders(block, cache))
        if owner != NO_OWNER:
            event = Event.WM_BLK_DIRTY
            ops = [(BusOp.CACHE_SUPPLY, 1)]
        elif shared:
            event = Event.WM_BLK_CLEAN
            ops = [(BusOp.MEM_ACCESS, 1)]
        else:
            event = Event.WM_UNCACHED
            ops = [(BusOp.MEM_ACCESS, 1)]
        if shared:
            ops.append((BusOp.WRITE_UPDATE, 1))
        sharing.add_holder(block, cache)
        sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=tuple(ops))

    def compile_table(self) -> Optional[TransitionTable]:
        return derive_table(self)
