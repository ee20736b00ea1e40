"""Event and bus-operation accounting for one simulation run."""

from __future__ import annotations

from typing import Dict, Mapping

from ..interconnect.costs import BusOpCounts
from ..protocols.base import AccessOutcome
from ..protocols.events import (
    FIRST_REF_EVENTS,
    READ_MISS_EVENTS,
    WRITE_HIT_EVENTS,
    WRITE_MISS_EVENTS,
    Event,
)
from .invalidation import InvalidationHistogram

__all__ = ["SimulationCounters", "EventFrequencies"]


class SimulationCounters:
    """Everything counted while a protocol processes a trace.

    ``evictions`` / ``dirty_evictions`` tally the finite-geometry stage's
    capacity and conflict displacements (always 0 under the paper's
    infinite caches); the write-backs dirty evictions cost are folded into
    ``ops`` by the stage itself.
    """

    __slots__ = ("events", "ops", "fanout", "evictions", "dirty_evictions")

    def __init__(self) -> None:
        self.events: Dict[Event, int] = {}
        self.ops = BusOpCounts()
        self.fanout = InvalidationHistogram()
        self.evictions = 0
        self.dirty_evictions = 0

    def record(self, outcome: AccessOutcome) -> None:
        """Tally one reference's outcome.

        A reference counts as a bus *transaction* exactly when
        ``outcome.used_bus`` holds — i.e. it carried at least one
        non-overlapped bus operation with a positive count.  Outcomes whose
        op list is empty, all-zero-count, or overlapped-only are free and
        must not inflate the Section 5.1 transaction rate.
        """
        events = self.events
        events[outcome.event] = events.get(outcome.event, 0) + 1
        ops = self.ops
        ops.references += 1
        for op, count in outcome.ops:
            ops.add(op, count)
        if outcome.used_bus:
            ops.transactions += 1
        if outcome.invalidation_fanout is not None:
            self.fanout.record(outcome.invalidation_fanout)

    @property
    def references(self) -> int:
        return self.ops.references

    def event_count(self, event: Event) -> int:
        return self.events.get(event, 0)

    def frequencies(self) -> "EventFrequencies":
        return EventFrequencies(self.events, self.references)

    def signature(self) -> Dict[str, object]:
        """Canonical JSON-able identity of everything this run counted.

        Two runs are bit-identical exactly when their signatures compare
        equal — the contract the backend differential suite, the telemetry
        proofs and the sweep service's result format all rely on.  Keys are
        strings (enum values, decimal fan-out sizes) and insertion order is
        sorted, so the signature survives a JSON round trip unchanged.
        """
        return {
            "references": self.ops.references,
            "transactions": self.ops.transactions,
            "events": {
                event.value: count
                for event, count in sorted(
                    self.events.items(), key=lambda item: item[0].value
                )
            },
            "ops": {
                op.value: count
                for op, count in sorted(
                    self.ops.ops.items(), key=lambda item: item[0].value
                )
            },
            "fanout": {
                str(size): count
                for size, count in sorted(self.fanout.as_dict().items())
            },
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
        }


class EventFrequencies:
    """Event rates as percentages of all references (the Table 4 view)."""

    def __init__(self, events: Mapping[Event, int], references: int) -> None:
        if references <= 0:
            raise ValueError("cannot compute frequencies of an empty run")
        self._events = dict(events)
        self._references = references

    def percent(self, event: Event) -> float:
        """One event's rate, in percent of all references."""
        return 100.0 * self._events.get(event, 0) / self._references

    def percent_of(self, events) -> float:
        """Combined rate of a set of events, in percent."""
        return sum(self.percent(event) for event in events)

    # -- the aggregate rows of Table 4 -----------------------------------------

    @property
    def instr(self) -> float:
        return self.percent(Event.INSTR)

    @property
    def read_hits(self) -> float:
        return self.percent(Event.READ_HIT)

    @property
    def read_misses(self) -> float:
        """``rd-miss (rm)``: read misses excluding first references."""
        return self.percent_of(READ_MISS_EVENTS)

    @property
    def reads(self) -> float:
        return (
            self.read_hits + self.read_misses + self.percent(Event.RM_FIRST_REF)
        )

    @property
    def write_hits(self) -> float:
        return self.percent_of(WRITE_HIT_EVENTS)

    @property
    def write_misses(self) -> float:
        """``wrt-miss (wm)``: write misses excluding first references."""
        return self.percent_of(WRITE_MISS_EVENTS)

    @property
    def writes(self) -> float:
        return (
            self.write_hits + self.write_misses + self.percent(Event.WM_FIRST_REF)
        )

    @property
    def data_miss_rate(self) -> float:
        """All data misses (first references excluded), percent of references."""
        return self.read_misses + self.write_misses

    @property
    def data_miss_rate_with_first_refs(self) -> float:
        return self.data_miss_rate + self.percent_of(FIRST_REF_EVENTS)

    def as_dict(self) -> Dict[str, float]:
        """All Table 4 rows for this scheme, keyed by the paper's labels."""
        return {
            "instr": self.instr,
            "read": self.reads,
            "rd-hit": self.read_hits,
            "rd-miss(rm)": self.read_misses,
            "rm-blk-cln": self.percent(Event.RM_BLK_CLEAN)
            + self.percent(Event.RM_UNCACHED),
            "rm-blk-drty": self.percent(Event.RM_BLK_DIRTY),
            "rm-first-ref": self.percent(Event.RM_FIRST_REF),
            "write": self.writes,
            "wrt-hit(wh)": self.write_hits,
            "wh-blk-cln": self.percent(Event.WH_BLK_CLEAN),
            "wh-blk-drty": self.percent(Event.WH_BLK_DIRTY),
            "wh-distrib": self.percent(Event.WH_DISTRIB),
            "wh-local": self.percent(Event.WH_LOCAL),
            "wrt-miss(wm)": self.write_misses,
            "wm-blk-cln": self.percent(Event.WM_BLK_CLEAN)
            + self.percent(Event.WM_UNCACHED),
            "wm-blk-drty": self.percent(Event.WM_BLK_DIRTY),
            "wm-first-ref": self.percent(Event.WM_FIRST_REF),
        }
