"""A competitive update/invalidate hybrid snoopy protocol.

The paper's comparison poses invalidation (Dir0B and friends) against pure
update (Dragon) and finds each wins on different sharing patterns: updates
are perfect for actively read-shared data (locks, producer/consumer) and
wasteful for migratory data whose old readers never look again.  The
classic resolution — competitive snooping (Karlin et al., and the
hardware EDWP variants) — is implemented here as an extension:

each cached copy carries a small counter; a bus *update* to the block
increments it, a local access resets it, and a copy whose counter reaches
``limit`` **self-invalidates** — it has proven it is no longer being read,
so further updates to it would be pure waste.  ``limit=∞`` degenerates to
Dragon exactly; small limits approach invalidation behaviour on migratory
data while keeping Dragon's strength on actively shared data.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER, iter_bits
from ..base import AccessOutcome, CoherenceProtocol, OpList
from ..events import Event

__all__ = ["CompetitiveUpdate"]


class CompetitiveUpdate(CoherenceProtocol):
    """Dragon with per-copy self-invalidation after ``limit`` unused updates."""

    name = "competitive"
    label = "EDWP"
    kind = "snoopy"

    def __init__(self, n_caches: int, limit: int = 4) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        super().__init__(n_caches)
        self.limit = limit
        #: (cache, block) -> updates received since the cache last touched it
        self._unused_updates: Dict[Tuple[int, int], int] = {}
        #: copies dropped by the competitive rule (diagnostic)
        self.self_invalidations = 0

    # -- bookkeeping -----------------------------------------------------------

    def _touch(self, cache: int, block: int) -> None:
        self._unused_updates.pop((cache, block), None)

    def _age_remote_copies(self, writer: int, block: int) -> None:
        """Distribute one update; drop copies that hit the limit."""
        sharing = self.sharing
        for holder in list(iter_bits(sharing.remote_holders(block, writer))):
            key = (holder, block)
            count = self._unused_updates.get(key, 0) + 1
            if count >= self.limit:
                sharing.remove_holder(block, holder)
                self._unused_updates.pop(key, None)
                self.self_invalidations += 1
            else:
                self._unused_updates[key] = count

    def block_state(self, block: int):
        counts = self._unused_updates
        return super().block_state(block) + (
            tuple(counts.get((cache, block), 0) for cache in range(self.n_caches)),
        )

    # -- reads ----------------------------------------------------------------

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            self._touch(cache, block)
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            return AccessOutcome(event=Event.RM_FIRST_REF)
        owner = self._remote_dirty_owner(cache, block)
        sharing.add_holder(block, cache)
        self._touch(cache, block)
        if owner != NO_OWNER:
            return AccessOutcome(
                event=Event.RM_BLK_DIRTY, ops=((BusOp.CACHE_SUPPLY, 1),)
            )
        event = (
            Event.RM_BLK_CLEAN
            if sharing.remote_holders(block, cache)
            else Event.RM_UNCACHED
        )
        return AccessOutcome(event=event, ops=((BusOp.MEM_ACCESS, 1),))

    # -- writes ----------------------------------------------------------------

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            self._touch(cache, block)
            if sharing.remote_holders(block, cache):
                # Broadcast the update; aged-out copies drop instead.
                self._age_remote_copies(cache, block)
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
        owner = self._remote_dirty_owner(cache, block)
        shared = bool(sharing.remote_holders(block, cache))
        if owner != NO_OWNER:
            event = Event.WM_BLK_DIRTY
            ops: OpList = ((BusOp.CACHE_SUPPLY, 1),)
        elif shared:
            event = Event.WM_BLK_CLEAN
            ops = ((BusOp.MEM_ACCESS, 1),)
        else:
            event = Event.WM_UNCACHED
            ops = ((BusOp.MEM_ACCESS, 1),)
        sharing.add_holder(block, cache)
        self._touch(cache, block)
        if shared:
            ops += ((BusOp.WRITE_UPDATE, 1),)
            self._age_remote_copies(cache, block)
        sharing.set_dirty(block, cache)
        return AccessOutcome(event=event, ops=ops)

    def evict(self, cache: int, block: int) -> OpList:
        self._unused_updates.pop((cache, block), None)
        return super().evict(cache, block)
