"""DirnNB: the Censier & Feautrier full-map directory, no broadcast.

Each directory entry holds a dirty bit plus one valid ("present") bit per
cache, so the directory always knows exactly which caches hold a block.
Invalidations are therefore **sequential directed messages** — one bus cycle
per copy — instead of a broadcast, which is what makes the scheme usable on
an arbitrary interconnection network (Section 6).

Because the state-change specification is identical to Dir0B (multiple clean
copies, single dirty copy), the event frequencies match Dir0B exactly; only
the invalidation cost differs, and the paper measures that difference to be
tiny (0.0499 vs 0.0491 cycles/reference) because over 85% of invalidation
situations involve at most one remote copy (Figure 1).
"""

from __future__ import annotations

from typing import Optional

from ...interconnect.bus import BusOp
from ..base import OpList
from ..table import TransitionTable, derive_table
from .dir0b import Dir0B

__all__ = ["DirnNB"]


class DirnNB(Dir0B):
    """Full-map (valid-bit-per-cache) directory with sequential invalidates."""

    name = "dirnnb"
    label = "DirnNB"
    kind = "directory"

    def _invalidation_ops(self, fanout: int) -> OpList:
        """One directed invalidation per remote copy."""
        return ((BusOp.INVALIDATE, fanout),)

    def compile_table(self) -> Optional[TransitionTable]:
        # Directed messages cover every fan-out: no broadcast regime.
        return derive_table(self)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """One valid bit per cache plus the dirty bit."""
        return n_caches + 1
