"""Per-processor cache models.

The paper's evaluation uses **infinite caches** (Section 4): blocks are never
displaced, so every miss is either a first-time fetch or a coherence miss,
which isolates exactly the cost of sharing.  :class:`InfiniteCache` models
that directly.

:class:`FiniteCache` is the library's extension beyond the paper: a
set-associative LRU cache that lets users estimate the "finite cache size"
correction the paper says can be added to first order (Section 4).  The
reference pipeline's set-associative LRU stage
(:class:`~repro.core.pipeline.SetAssociativeLRU`) uses it to inject
capacity/conflict evictions into any protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from .state import LineState

__all__ = ["InfiniteCache", "FiniteCache", "CacheGeometry"]


class InfiniteCache:
    """A cache that never evicts: block -> :class:`LineState` (valid lines only)."""

    __slots__ = ("_lines",)

    def __init__(self) -> None:
        self._lines: Dict[int, LineState] = {}

    def state_of(self, block: int) -> LineState:
        return self._lines.get(block, LineState.INVALID)

    def contains(self, block: int) -> bool:
        return block in self._lines

    def insert(self, block: int, state: LineState = LineState.CLEAN) -> None:
        if not state.is_valid:
            raise ValueError("cannot insert a line in INVALID state")
        self._lines[block] = state

    def set_state(self, block: int, state: LineState) -> None:
        if not state.is_valid:
            self.invalidate(block)
        elif block in self._lines:
            self._lines[block] = state
        else:
            raise KeyError(f"block {block:#x} not resident")

    def invalidate(self, block: int) -> bool:
        """Drop a line; returns True if it was resident."""
        return self._lines.pop(block, None) is not None

    def resident_blocks(self) -> Iterator[int]:
        return iter(self._lines)

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, block: int) -> bool:
        return block in self._lines


class CacheGeometry:
    """Size/associativity parameters of a finite cache.

    The canonical short form is the **spec string** ``"SETSxWAYS"``
    (e.g. ``"64x4"`` = 64 sets, 4-way = 256 blocks), produced by
    :attr:`spec` and accepted by :meth:`parse` — the form the sweep grid,
    result cache key, and CLI flags all use.
    """

    __slots__ = ("n_sets", "associativity")

    def __init__(self, n_sets: int, associativity: int) -> None:
        if n_sets <= 0 or (n_sets & (n_sets - 1)) != 0:
            raise ValueError(f"n_sets must be a positive power of two, got {n_sets}")
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        self.n_sets = n_sets
        self.associativity = associativity

    @classmethod
    def parse(cls, text: str) -> "CacheGeometry":
        """Build a geometry from a ``"SETSxWAYS"`` spec string."""
        parts = str(text).strip().lower().split("x")
        if len(parts) != 2:
            raise ValueError(
                f"bad cache geometry {text!r}: expected SETSxWAYS, e.g. '64x4'"
            )
        try:
            n_sets, associativity = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"bad cache geometry {text!r}: expected SETSxWAYS, e.g. '64x4'"
            ) from None
        return cls(n_sets, associativity)

    @property
    def spec(self) -> str:
        """The ``"SETSxWAYS"`` spec string (round-trips through :meth:`parse`)."""
        return f"{self.n_sets}x{self.associativity}"

    @property
    def capacity_blocks(self) -> int:
        return self.n_sets * self.associativity

    def set_of(self, block: int) -> int:
        return block & (self.n_sets - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheGeometry):
            return NotImplemented
        return (
            self.n_sets == other.n_sets
            and self.associativity == other.associativity
        )

    def __hash__(self) -> int:
        return hash((self.n_sets, self.associativity))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CacheGeometry(n_sets={self.n_sets}, associativity={self.associativity})"


class FiniteCache:
    """Set-associative LRU cache with per-line coherence state.

    ``access`` returns the block evicted to make room, if any, so a caller
    (the finite-cache simulator) can inform the protocol of the displacement.
    """

    __slots__ = ("geometry", "_sets")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List["OrderedDict[int, LineState]"] = [
            OrderedDict() for _ in range(geometry.n_sets)
        ]

    def _set_for(self, block: int) -> "OrderedDict[int, LineState]":
        return self._sets[self.geometry.set_of(block)]

    def state_of(self, block: int) -> LineState:
        return self._set_for(block).get(block, LineState.INVALID)

    def contains(self, block: int) -> bool:
        return block in self._set_for(block)

    def touch(self, block: int) -> bool:
        """Mark a hit for LRU purposes; returns False if not resident."""
        lines = self._set_for(block)
        if block not in lines:
            return False
        lines.move_to_end(block)
        return True

    def insert(self, block: int, state: LineState = LineState.CLEAN) -> Optional[int]:
        """Insert a line, returning the evicted block (victim) if any."""
        if not state.is_valid:
            raise ValueError("cannot insert a line in INVALID state")
        lines = self._set_for(block)
        victim: Optional[int] = None
        if block not in lines and len(lines) >= self.geometry.associativity:
            victim, _ = lines.popitem(last=False)
        lines[block] = state
        lines.move_to_end(block)
        return victim

    def set_state(self, block: int, state: LineState) -> None:
        if not state.is_valid:
            self.invalidate(block)
            return
        lines = self._set_for(block)
        if block not in lines:
            raise KeyError(f"block {block:#x} not resident")
        lines[block] = state

    def invalidate(self, block: int) -> bool:
        return self._set_for(block).pop(block, None) is not None

    def resident_blocks(self) -> Iterator[int]:
        for lines in self._sets:
            yield from lines

    def __len__(self) -> int:
        return sum(len(lines) for lines in self._sets)

    def __contains__(self, block: int) -> bool:
        return self.contains(block)
