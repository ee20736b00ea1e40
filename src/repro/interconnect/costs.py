"""Cost accounting: from counted bus operations to the paper's metrics.

The paper's method deliberately separates *event frequencies* (one simulation
per protocol) from *hardware costs* (Section 4.1): "Since the choice of the
hardware model is independent of the event frequencies, we need just one
simulation run per protocol to compute the event frequencies, and we can
then vary costs for different hardware models."

:class:`BusOpCounts` is the simulation-side half: an additive tally of
primitive bus operations (plus the number of bus transactions, i.e.
references that used the bus at all).  :class:`CostSummary` is the
hardware-side half: cycles per reference under a given
:class:`~repro.interconnect.bus.BusCostModel`, broken down by Table 5
category, with the Section 5.1 fixed-overhead model available via
``cycles_per_reference_with_overhead``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .bus import TABLE5_CATEGORY, BusCostModel, BusOp, Table5Category

__all__ = ["BusOpCounts", "CostSummary", "summarize_costs"]


class BusOpCounts:
    """Additive tally of primitive bus operations over a simulation run."""

    __slots__ = ("ops", "transactions", "references")

    def __init__(self) -> None:
        self.ops: Dict[BusOp, int] = {}
        #: number of references that performed at least one bus operation
        self.transactions: int = 0
        #: total references processed (instructions included)
        self.references: int = 0

    def add(self, op: BusOp, count: int = 1) -> None:
        if count:
            self.ops[op] = self.ops.get(op, 0) + count

    def rate(self, op: BusOp) -> float:
        """Occurrences of ``op`` per reference."""
        if self.references == 0:
            return 0.0
        return self.ops.get(op, 0) / self.references

    @property
    def transactions_per_reference(self) -> float:
        if self.references == 0:
            return 0.0
        return self.transactions / self.references


@dataclass(frozen=True)
class CostSummary:
    """Bus cycles per memory reference under one bus model (Table 5 column)."""

    protocol: str
    bus: str
    cycles_per_reference: float
    by_category: Mapping[Table5Category, float]
    transactions_per_reference: float
    #: nanojoules per memory reference; ``None`` when the bus model carries
    #: no energy axis (parametric derivations, Section 6 network models)
    energy_per_reference: Optional[float] = None

    @property
    def cycles_per_transaction(self) -> float:
        """Average bus cycles per bus transaction (paper Figure 5)."""
        if self.transactions_per_reference == 0:
            return 0.0
        return self.cycles_per_reference / self.transactions_per_reference

    def cycles_per_reference_with_overhead(self, q: float) -> float:
        """Add ``q`` fixed bus cycles to every bus transaction (Section 5.1).

        The paper notes every transaction carries at least one extra cycle of
        cache access / bus controller / arbitration overhead; schemes with
        many cheap transactions (Dragon) are hurt more by this than schemes
        with fewer, larger ones.
        """
        if q < 0:
            raise ValueError(f"overhead q must be non-negative, got {q}")
        return self.cycles_per_reference + q * self.transactions_per_reference

    def category_fractions(self) -> Dict[Table5Category, float]:
        """Each category's share of the scheme's total cycles (Figure 4)."""
        total = self.cycles_per_reference
        if total == 0:
            return {category: 0.0 for category in self.by_category}
        return {
            category: cycles / total for category, cycles in self.by_category.items()
        }


def summarize_costs(
    protocol: str, counts: BusOpCounts, bus: BusCostModel
) -> CostSummary:
    """Weight counted bus ops by a bus model's cycle costs."""
    if counts.references == 0:
        raise ValueError("cannot summarize costs of an empty run")
    by_category: Dict[Table5Category, float] = {
        category: 0.0 for category in Table5Category
    }
    for op, count in counts.ops.items():
        by_category[TABLE5_CATEGORY[op]] += bus.cost_of(op) * count
    per_ref = {
        category: cycles / counts.references
        for category, cycles in by_category.items()
    }
    energy: Optional[float] = None
    if bus.has_energy:
        energy = bus.total_energy_nj(counts.ops) / counts.references
    return CostSummary(
        protocol=protocol,
        bus=bus.name,
        cycles_per_reference=sum(per_ref.values()),
        by_category=per_ref,
        transactions_per_reference=counts.transactions_per_reference,
        energy_per_reference=energy,
    )
