"""Invalidation fan-out accounting (paper Figure 1).

Figure 1 histograms "the number of caches in which a block must be
invalidated on a write to a previously-clean block" — the population of
``wh-blk-cln`` and ``wm-blk-cln`` events — and finds that over 85% of such
writes invalidate at most one remote cache.  That observation motivates the
whole Section 6 family of limited-pointer directories.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["InvalidationHistogram"]


class InvalidationHistogram:
    """Histogram of remote copies invalidated per write to a clean block."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def record(self, fanout: int) -> None:
        if fanout < 0:
            raise ValueError(f"fanout must be non-negative, got {fanout}")
        self._counts[fanout] = self._counts.get(fanout, 0) + 1

    def add(self, fanout: int, count: int) -> None:
        """Record ``count`` events at once (bulk flush from the fast backend)."""
        if fanout < 0:
            raise ValueError(f"fanout must be non-negative, got {fanout}")
        if count:
            self._counts[fanout] = self._counts.get(fanout, 0) + count

    def merge(self, other: "InvalidationHistogram") -> "InvalidationHistogram":
        for fanout, count in other._counts.items():
            self._counts[fanout] = self._counts.get(fanout, 0) + count
        return self

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def count(self, fanout: int) -> int:
        return self._counts.get(fanout, 0)

    @property
    def max_fanout(self) -> int:
        return max(self._counts, default=0)

    def percentages(self) -> List[float]:
        """Figure 1's bars: percent of events at fanout 0, 1, 2, ... max."""
        total = self.total
        if total == 0:
            return []
        return [
            100.0 * self._counts.get(fanout, 0) / total
            for fanout in range(self.max_fanout + 1)
        ]

    def share_at_most(self, fanout: int) -> float:
        """Fraction of events invalidating at most ``fanout`` caches."""
        total = self.total
        if total == 0:
            return 0.0
        covered = sum(
            count for value, count in self._counts.items() if value <= fanout
        )
        return covered / total

    @property
    def mean_fanout(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return sum(value * count for value, count in self._counts.items()) / total

    def as_dict(self) -> Dict[int, int]:
        return dict(self._counts)
