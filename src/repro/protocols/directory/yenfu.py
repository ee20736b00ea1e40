"""Yen & Fu's single-bit refinement of the full-map directory.

The central directory is unchanged from Censier & Feautrier, but every cache
additionally keeps a **single bit** per block that is set if and only if that
cache holds the only copy in the system (Section 2).  A write hit to a clean
block whose single bit is set can then proceed without completing a
directory access — saving the standalone directory check that Dir0B/DirnNB
pay on every such write.

The catch the paper points out: "extra bus bandwidth is consumed to keep the
single bits updated in all the caches.  Thus, the scheme saves central
directory accesses, but does not reduce the number of bus accesses."  This
implementation charges one :data:`BusOp.SINGLE_BIT_UPDATE` cycle whenever a
previously-sole holder must be told it is no longer alone (except when that
holder is already the target of the flush request, which carries the news
for free).
"""

from __future__ import annotations

from typing import Dict, Optional

from ...interconnect.bus import BusOp
from ..base import NO_OPS, AccessOutcome, OpList
from ..events import Event
from ..table import TransitionTable, derive_table
from .dirnnb import DirnNB

__all__ = ["YenFu"]

class YenFu(DirnNB):
    """Full-map directory plus per-cache single ("only copy") bits."""

    name = "yenfu"
    label = "YenFu"
    kind = "directory"

    def __init__(self, n_caches: int) -> None:
        super().__init__(n_caches)
        #: block -> cache whose single bit is set (at most one, by definition)
        self._single: Dict[int, int] = {}
        #: standalone directory checks avoided thanks to the single bit
        self.saved_directory_checks = 0

    def _admit_holder(self, cache: int, block: int, flushed: bool = False) -> OpList:
        sharing = self.sharing
        ops: OpList = NO_OPS
        sole = self._single.pop(block, None)
        if sole is not None and sole != cache:
            # The old sole holder's single bit must be cleared.  If the block
            # was dirty there, the flush request we just sent doubles as the
            # notification; otherwise it costs a bus cycle.
            if not flushed:
                ops = ((BusOp.SINGLE_BIT_UPDATE, 1),)
        sharing.add_holder(block, cache)
        if sharing.holder_count(block) == 1:
            self._single[block] = cache
        return ops

    def _note_exclusive(self, cache: int, block: int) -> None:
        # All other copies were just invalidated; the directory's reply to
        # the invalidation request tells the writer it is sole, for free.
        self._single[block] = cache

    def _write_hit_clean(self, cache: int, block: int) -> AccessOutcome:
        if self._single.get(block) == cache:
            self.saved_directory_checks += 1
            self.sharing.set_dirty(block, cache)
            return AccessOutcome(
                event=Event.WH_BLK_CLEAN, ops=NO_OPS, invalidation_fanout=0
            )
        return super()._write_hit_clean(cache, block)

    def evict(self, cache: int, block: int) -> OpList:
        if self._single.get(block) == cache:
            del self._single[block]
        return super().evict(cache, block)

    def block_state(self, block: int):
        return super().block_state(block) + (self._single.get(block),)

    def compile_table(self) -> Optional[TransitionTable]:
        # The single bits are the table's aux column.  The fast backend does
        # not maintain the ``saved_directory_checks`` diagnostic.
        return derive_table(self, aux=self._single)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """Central directory identical to the full map (the single bits live
        in the caches)."""
        return n_caches + 1
