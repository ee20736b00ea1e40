"""DiriB: i directory pointers plus a broadcast bit (Section 6).

The directory entry stores up to ``i`` cache pointers.  While the caches
that must be *invalidated* fit in the pointers, invalidation is a directed
sequential message per copy; when they do not, the broadcast bit has been
set and the invalidation costs one ``b``-cycle broadcast.

This implements the paper's own simple cost model: "a single invalidation
request is issued if the broadcast bit is clear; otherwise, the invalidation
must be broadcast ... this directory scheme requires 0.0485 + 0.0006·b
cycles per memory reference" — i.e. the broadcast rate equals the rate of
invalidation situations with more than ``i`` remote copies.  The requesting
cache's identity arrives with the request itself, so only the *other*
holders consume pointer storage.  (With multiple sharers the pointer
contents can be stale in ways a real implementation would have to handle
conservatively; the paper's model — and this class — charges the broadcast
exactly when more than ``i`` caches must be invalidated.)

``Dir1B`` is ``DiriB(i=1)``.  The state-change specification is unchanged
from Dir0B (all copies are still permitted), so the event frequencies again
match Dir0B; only the mixture of directed vs broadcast invalidations
differs.
"""

from __future__ import annotations

import math
from typing import Optional

from ...interconnect.bus import BusOp
from ..base import OpList
from ..table import TransitionTable, derive_table
from .dir0b import Dir0B

__all__ = ["DiriB", "Dir1B"]


class DiriB(Dir0B):
    """Directory with ``i`` pointers and a broadcast fallback bit."""

    name = "dirib"
    label = "DiriB"
    kind = "directory"

    def __init__(self, n_caches: int, pointers: int = 1) -> None:
        if pointers < 1:
            raise ValueError(f"pointers must be >= 1, got {pointers}")
        super().__init__(n_caches)
        self.pointers = pointers
        #: invalidations that had to fall back to a broadcast
        self.broadcasts = 0
        #: invalidations covered by directed pointer messages
        self.directed_invalidations = 0

    def _invalidation_ops(self, fanout: int) -> OpList:
        """Directed messages while the copies fit the pointers; else one
        broadcast."""
        if fanout <= self.pointers:
            self.directed_invalidations += 1
            return ((BusOp.INVALIDATE, fanout),)
        self.broadcasts += 1
        return ((BusOp.BROADCAST_INVALIDATE, 1),)

    def compile_table(self) -> Optional[TransitionTable]:
        # Directed while the copies fit the pointers, broadcast beyond.
        return derive_table(self, threshold=self.pointers)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int, pointers: int = 1) -> int:
        """``i`` cache pointers, a broadcast bit, and a dirty bit."""
        pointer_bits = max(1, math.ceil(math.log2(n_caches)))
        return pointers * pointer_bits + 2


class Dir1B(DiriB):
    """The single-pointer-plus-broadcast-bit scheme of Section 6."""

    name = "dir1b"
    label = "Dir1B"

    def __init__(self, n_caches: int) -> None:
        super().__init__(n_caches, pointers=1)

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        return DiriB.directory_bits_per_block(n_caches, pointers=1)
