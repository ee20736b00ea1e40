"""DiriNB: i directory pointers, no broadcast — copies capped at i.

Section 6's alternative to broadcast fallback: the directory stores up to
``i`` pointers and simply **refuses to let more than i copies exist**.  When
an ``i+1``-th cache misses on the block, one existing copy is displaced
(invalidated) to free a pointer, trading a slightly increased miss rate for
never needing a broadcast — the property that makes the scheme scale to
arbitrary interconnection networks.

``DiriNB(i=1)`` degenerates to Dir1NB, which the test suite exploits as a
cross-check: both produce identical miss events and bus operations.

Because the copy cap changes which references miss, this scheme's event
frequencies genuinely differ from Dir0B's (unlike DirnNB/DiriB) and must be
measured by simulation — which is exactly why the library implements it as a
real state machine rather than a cost-model tweak.

The displacement victim is chosen by a pluggable policy: ``"fifo"`` (oldest
sharer, the default), ``"lifo"`` (newest), or ``"random"`` (seeded).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from ...interconnect.bus import BusOp
from ..base import NO_OPS, AccessOutcome, OpList
from ..events import Event
from .dirnnb import DirnNB

__all__ = ["DiriNB", "EVICTION_POLICIES"]

EVICTION_POLICIES = ("fifo", "lifo", "random")


class DiriNB(DirnNB):
    """Directory with ``i`` pointers and displacement instead of broadcast."""

    name = "dirinb"
    label = "DiriNB"
    kind = "directory"

    def compile_table(self):
        """Not table-compilable: displacement depends on per-block admission
        order (and possibly an RNG), which the table state cannot carry."""
        return None

    def __init__(
        self,
        n_caches: int,
        pointers: int = 2,
        eviction: str = "fifo",
        seed: int = 0,
    ) -> None:
        if pointers < 1:
            raise ValueError(f"pointers must be >= 1, got {pointers}")
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"eviction must be one of {EVICTION_POLICIES}, got {eviction!r}"
            )
        super().__init__(n_caches)
        self.pointers = pointers
        self.eviction = eviction
        self._rng = random.Random(seed)
        #: per-block sharer list in admission order (for FIFO/LIFO policies)
        self._order: Dict[int, List[int]] = {}
        #: total copies displaced to free pointers (diagnostic)
        self.displacements = 0

    # -- pointer bookkeeping -------------------------------------------------

    def _admit_holder(self, cache: int, block: int, flushed: bool = False) -> OpList:
        sharing = self.sharing
        order = self._order.setdefault(block, [])
        ops: OpList = NO_OPS
        if sharing.holder_count(block) >= self.pointers:
            victim = self._choose_victim(order)
            sharing.remove_holder(block, victim)
            order.remove(victim)
            self.displacements += 1
            # Displaced copies are always clean here: dirty copies are
            # flushed before any new sharer is admitted.
            ops = ((BusOp.INVALIDATE, 1),)
        sharing.add_holder(block, cache)
        order.append(cache)
        return ops

    def block_state(self, block: int):
        # With the "random" policy the RNG's state also matters; it is not
        # part of the snapshot.
        return super().block_state(block) + (tuple(self._order.get(block, ())),)

    def _choose_victim(self, order: List[int]) -> int:
        if self.eviction == "fifo":
            return order[0]
        if self.eviction == "lifo":
            return order[-1]
        return self._rng.choice(order)

    def _note_exclusive(self, cache: int, block: int) -> None:
        self._order[block] = [cache]

    def evict(self, cache: int, block: int) -> OpList:
        order = self._order.get(block)
        if order is not None and cache in order:
            order.remove(cache)
        return super().evict(cache, block)

    # -- the i == 1 special case ------------------------------------------------

    def _write_hit_clean(self, cache: int, block: int) -> AccessOutcome:
        if self.pointers == 1:
            # The holder is provably the only copy (the cap is 1), so the
            # dirty bit can be set locally with no directory check — the same
            # argument Dir1NB uses.
            self.sharing.set_dirty(block, cache)
            self._note_exclusive(cache, block)
            return AccessOutcome(
                event=Event.WH_BLK_CLEAN, ops=NO_OPS, invalidation_fanout=0
            )
        return super()._write_hit_clean(cache, block)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int, pointers: int = 2) -> int:
        """``i`` cache pointers plus a dirty bit (no broadcast bit needed)."""
        pointer_bits = max(1, math.ceil(math.log2(n_caches)))
        return pointers * pointer_bits + 1
