"""Unit tests for bus-operation counting and cost summaries."""

import pytest

from repro.interconnect.bus import BusOp, Table5Category, pipelined_bus
from repro.interconnect.costs import BusOpCounts, summarize_costs


def _counts(ops, references, transactions):
    counts = BusOpCounts()
    for op, n in ops.items():
        counts.add(op, n)
    counts.references = references
    counts.transactions = transactions
    return counts


class TestBusOpCounts:
    def test_add_accumulates(self):
        counts = BusOpCounts()
        counts.add(BusOp.MEM_ACCESS)
        counts.add(BusOp.MEM_ACCESS, 2)
        assert counts.ops[BusOp.MEM_ACCESS] == 3

    def test_add_zero_is_noop(self):
        counts = BusOpCounts()
        counts.add(BusOp.MEM_ACCESS, 0)
        assert BusOp.MEM_ACCESS not in counts.ops

    def test_rate(self):
        counts = _counts({BusOp.INVALIDATE: 5}, references=100, transactions=5)
        assert counts.rate(BusOp.INVALIDATE) == 0.05
        assert counts.rate(BusOp.MEM_ACCESS) == 0.0

    def test_rate_of_empty_run_is_zero(self):
        assert BusOpCounts().rate(BusOp.MEM_ACCESS) == 0.0

    def test_transactions_per_reference(self):
        counts = _counts({}, references=200, transactions=10)
        assert counts.transactions_per_reference == 0.05

class TestCostSummary:
    def test_cycles_per_reference(self):
        counts = _counts(
            {BusOp.MEM_ACCESS: 10, BusOp.INVALIDATE: 10}, 1000, 20
        )
        summary = summarize_costs("X", counts, pipelined_bus())
        assert summary.cycles_per_reference == pytest.approx(
            (10 * 5 + 10 * 1) / 1000
        )

    def test_category_breakdown(self):
        counts = _counts(
            {BusOp.FLUSH_REQUEST: 4, BusOp.WRITE_BACK: 4, BusOp.DIR_CHECK: 2},
            1000,
            6,
        )
        summary = summarize_costs("X", counts, pipelined_bus())
        assert summary.by_category[Table5Category.MEM_ACCESS] == pytest.approx(
            4 / 1000
        )
        assert summary.by_category[Table5Category.WRITE_BACK] == pytest.approx(
            16 / 1000
        )
        assert summary.by_category[Table5Category.DIR_ACCESS] == pytest.approx(
            2 / 1000
        )

    def test_cycles_per_transaction(self):
        counts = _counts({BusOp.MEM_ACCESS: 10}, 1000, 10)
        summary = summarize_costs("X", counts, pipelined_bus())
        assert summary.cycles_per_transaction == pytest.approx(5.0)

    def test_overhead_model(self):
        counts = _counts({BusOp.MEM_ACCESS: 10}, 1000, 10)
        summary = summarize_costs("X", counts, pipelined_bus())
        base = summary.cycles_per_reference
        assert summary.cycles_per_reference_with_overhead(0) == base
        assert summary.cycles_per_reference_with_overhead(2) == pytest.approx(
            base + 2 * 0.01
        )

    def test_overhead_rejects_negative_q(self):
        counts = _counts({BusOp.MEM_ACCESS: 1}, 10, 1)
        summary = summarize_costs("X", counts, pipelined_bus())
        with pytest.raises(ValueError):
            summary.cycles_per_reference_with_overhead(-1)

    def test_category_fractions_sum_to_one(self):
        counts = _counts(
            {BusOp.MEM_ACCESS: 3, BusOp.WRITE_BACK: 2, BusOp.INVALIDATE: 7},
            500,
            12,
        )
        summary = summarize_costs("X", counts, pipelined_bus())
        assert sum(summary.category_fractions().values()) == pytest.approx(1.0)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="empty run"):
            summarize_costs("X", BusOpCounts(), pipelined_bus())

    def test_zero_transactions_gives_zero_per_transaction(self):
        counts = _counts({}, references=100, transactions=0)
        summary = summarize_costs("X", counts, pipelined_bus())
        assert summary.cycles_per_transaction == 0.0
