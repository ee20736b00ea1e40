"""Write-Through-With-Invalidate (WTI), the simple snoopy scheme.

Every write is transmitted to main memory (write-through), and every other
cache snooping on the bus invalidates its copy of the written block
(Section 3).  Memory is therefore never stale: all misses are serviced by
memory, dirty blocks do not exist, and invalidations ride for free on the
write-through bus transaction.

WTI shares its state-change specification with Dir0B — multiple clean
copies, invalidate on write — which is why the paper's Table 4 shows
identical event frequencies for the two; the enormous cost difference
(roughly 3x) is pure write-through traffic.  The paper calls it "one of the
lowest-performance snooping cache consistency protocols".

Writes allocate: after the write-through, the writer holds the (clean,
memory-consistent) block.
"""

from __future__ import annotations

from typing import Optional

from ...interconnect.bus import BusOp
from ...memory.sharing import bit_count
from ..base import AccessOutcome, CoherenceProtocol
from ..events import Event
from ..table import TransitionTable, derive_table

__all__ = ["WTI"]

_WT_OP = ((BusOp.WRITE_THROUGH, 1),)

class WTI(CoherenceProtocol):
    """Write-through snoopy protocol with invalidation."""

    name = "wti"
    label = "WTI"
    kind = "snoopy"

    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        if sharing.is_held(block, cache):
            return AccessOutcome(event=Event.READ_HIT)
        if first_ref:
            sharing.add_holder(block, cache)
            return AccessOutcome(event=Event.RM_FIRST_REF)
        event = (
            Event.RM_BLK_CLEAN
            if sharing.remote_holders(block, cache)
            else Event.RM_UNCACHED
        )
        sharing.add_holder(block, cache)
        return AccessOutcome(event=event, ops=((BusOp.MEM_ACCESS, 1),))

    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        sharing = self.sharing
        remote = sharing.remote_holders(block, cache)
        if sharing.is_held(block, cache):
            # Snoopers invalidate for free as the write-through goes by.
            if remote:
                sharing.set_only_holder(block, cache)
            return AccessOutcome(
                event=Event.WRITE_HIT,
                ops=_WT_OP,
                invalidation_fanout=bit_count(remote),
            )
        if first_ref:
            # The block fetch is excluded (first reference), but the written
            # word still goes through to memory — that is WTI policy cost,
            # not a coherence miss.
            sharing.add_holder(block, cache)
            return AccessOutcome(event=Event.WM_FIRST_REF, ops=_WT_OP)
        event = Event.WM_BLK_CLEAN if remote else Event.WM_UNCACHED
        if remote:
            sharing.set_only_holder(block, cache)
        else:
            sharing.add_holder(block, cache)
        return AccessOutcome(
            event=event,
            ops=((BusOp.MEM_ACCESS, 1), (BusOp.WRITE_THROUGH, 1)),
            invalidation_fanout=bit_count(remote),
        )

    def compile_table(self) -> Optional[TransitionTable]:
        return derive_table(self)
