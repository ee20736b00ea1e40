"""Dir0B: the Archibald & Baer two-bit directory with broadcast.

The directory keeps two bits per main-memory block encoding *not cached*,
*clean in exactly one cache*, *clean in an unknown number of caches*, or
*dirty in exactly one cache* — no pointers at all.  Invalidations and
write-back requests are therefore broadcasts, except that the
"clean in exactly one cache" state lets the sole holder write without a
broadcast (the directory check suffices).

State-change specification (shared with DirnNB, DiriB, WTI and Berkeley):
multiple clean copies, a single dirty copy, invalidate on write — so its
event frequencies coincide with all of those (Section 5's observation).

This class doubles as the base of the pointer-bearing directory family:
subclasses override :meth:`_invalidation_ops` (how remote copies are
removed), :meth:`_admit_holder` (what happens when a cache joins the sharer
set) and :meth:`_note_exclusive` (bookkeeping when a writer becomes the sole
dirty holder).
"""

from __future__ import annotations

from typing import Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import NO_OWNER, bit_count
from ..base import NO_OPS, AccessOutcome, CoherenceProtocol, OpList
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["Dir0B"]

class Dir0B(CoherenceProtocol):
    """Two-bit broadcast directory protocol (Archibald & Baer)."""

    name = "dir0b"
    label = "Dir0B"
    kind = "directory"

    # -- subclass hooks -------------------------------------------------------

    def _invalidation_ops(self, fanout: int) -> OpList:
        """Bus ops removing ``fanout`` (>= 1) remote clean copies.

        Dir0B has no pointers, so this is a single broadcast; pointer-bearing
        subclasses (DirnNB, DiriB) send directed messages instead.
        """
        return ((BusOp.BROADCAST_INVALIDATE, 1),)

    def _admit_holder(self, cache: int, block: int, flushed: bool = False) -> OpList:
        """Add ``cache`` to the sharer set of ``block``; return any extra ops.

        ``flushed`` is True when the admission was preceded by a dirty-copy
        flush (so the previous owner already saw a directed request).
        Subclasses with bounded pointer storage override this to update their
        pointer state (DiriB) or displace an existing copy (DiriNB); Yen & Fu
        uses it to maintain the single bits.
        """
        self.sharing.add_holder(block, cache)
        return NO_OPS

    def _note_exclusive(self, cache: int, block: int) -> None:
        """Bookkeeping hook: ``cache`` just became the sole (dirty) holder."""

    def compile_table(self) -> Optional[TransitionTable]:
        # Dir0B broadcasts whatever the fan-out: no directed regime.
        return derive_table(self, threshold=0)

    # -- reads ----------------------------------------------------------------

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            self._admit_holder(cache, block)
            return AccessOutcome(event=Event.RM_FIRST_REF)
        owner = self._remote_dirty_owner(cache, block)
        if owner != NO_OWNER:
            # Flush the dirty copy to memory; the requester snarfs the data
            # and both caches end up with clean copies.
            sharing.clear_dirty(block)
            ops = (
                (BusOp.FLUSH_REQUEST, 1),
                (BusOp.WRITE_BACK, 1),
                (BusOp.DIR_CHECK_OVERLAPPED, 1),
            ) + self._admit_holder(cache, block, flushed=True)
            return AccessOutcome(event=Event.RM_BLK_DIRTY, ops=ops)
        event = (
            Event.RM_BLK_CLEAN
            if sharing.remote_holders(block, cache)
            else Event.RM_UNCACHED
        )
        ops = (
            (BusOp.MEM_ACCESS, 1),
            (BusOp.DIR_CHECK_OVERLAPPED, 1),
        ) + self._admit_holder(cache, block)
        return AccessOutcome(event=event, ops=ops)

    # -- writes ---------------------------------------------------------------

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            if sharing.is_dirty_in(block, cache):
                return AccessOutcome(event=Event.WH_BLK_DIRTY)
            return self._write_hit_clean(cache, block)
        if first_ref:
            sharing.add_holder(block, cache)
            sharing.set_dirty(block, cache)
            self._note_exclusive(cache, block)
            return AccessOutcome(event=Event.WM_FIRST_REF)
        return self._write_miss(cache, block)

    def _write_hit_clean(self, cache: int, block: int) -> AccessOutcome:
        """Write hit to a clean block: ask the directory, invalidate if shared.

        The directory check is a standalone bus operation (it accompanies no
        memory access, so it cannot be overlapped).  The invalidation is
        skipped when the directory state is "clean in exactly one cache".
        """
        sharing = self.sharing
        remote = sharing.remote_holders(block, cache)
        fanout = bit_count(remote)
        ops: OpList = ((BusOp.DIR_CHECK, 1),)
        if remote:
            ops += self._invalidation_ops(fanout)
            sharing.set_only_holder(block, cache)
        sharing.set_dirty(block, cache)
        self._note_exclusive(cache, block)
        return AccessOutcome(
            event=Event.WH_BLK_CLEAN, ops=ops, invalidation_fanout=fanout
        )

    def _write_miss(self, cache: int, block: int) -> AccessOutcome:
        sharing = self.sharing
        owner = self._remote_dirty_owner(cache, block)
        if owner != NO_OWNER:
            # Flush request: the owner writes back (the requester snarfs the
            # data) and its copy is invalidated.
            ops: OpList = (
                (BusOp.FLUSH_REQUEST, 1),
                (BusOp.WRITE_BACK, 1),
                (BusOp.INVALIDATE, 1),
                (BusOp.DIR_CHECK_OVERLAPPED, 1),
            )
            event = Event.WM_BLK_DIRTY
            fanout = None
        else:
            remote = sharing.remote_holders(block, cache)
            fanout = bit_count(remote)
            if remote:
                ops = (
                    (BusOp.MEM_ACCESS, 1),
                    (BusOp.DIR_CHECK_OVERLAPPED, 1),
                ) + self._invalidation_ops(fanout)
                event = Event.WM_BLK_CLEAN
            else:
                ops = ((BusOp.MEM_ACCESS, 1), (BusOp.DIR_CHECK_OVERLAPPED, 1))
                event = Event.WM_UNCACHED
        sharing.purge(block)
        sharing.add_holder(block, cache)
        sharing.set_dirty(block, cache)
        self._note_exclusive(cache, block)
        return AccessOutcome(event=event, ops=ops, invalidation_fanout=fanout)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """Two state bits regardless of the number of caches."""
        return 2
