"""Unit tests for event counting and Table 4 frequency views."""

import pytest

from repro.core.counters import SimulationCounters
from repro.interconnect.bus import BusOp
from repro.protocols.base import AccessOutcome
from repro.protocols.events import Event


def _outcome(event, ops=(), fanout=None):
    return AccessOutcome(event=event, ops=tuple(ops), invalidation_fanout=fanout)


class TestSimulationCounters:
    def test_records_events(self):
        counters = SimulationCounters()
        counters.record(_outcome(Event.READ_HIT))
        counters.record(_outcome(Event.READ_HIT))
        counters.record(_outcome(Event.INSTR))
        assert counters.event_count(Event.READ_HIT) == 2
        assert counters.references == 3

    def test_records_bus_ops_and_transactions(self):
        counters = SimulationCounters()
        counters.record(
            _outcome(Event.RM_BLK_CLEAN, ops=[(BusOp.MEM_ACCESS, 1)])
        )
        counters.record(_outcome(Event.READ_HIT))
        assert counters.ops.ops[BusOp.MEM_ACCESS] == 1
        assert counters.ops.transactions == 1
        assert counters.ops.references == 2

    def test_overlapped_dir_check_is_not_a_transaction(self):
        counters = SimulationCounters()
        counters.record(
            _outcome(Event.READ_HIT, ops=[(BusOp.DIR_CHECK_OVERLAPPED, 1)])
        )
        assert counters.ops.transactions == 0

    def test_records_fanout(self):
        counters = SimulationCounters()
        counters.record(_outcome(Event.WH_BLK_CLEAN, fanout=2))
        counters.record(_outcome(Event.WH_BLK_CLEAN, fanout=0))
        assert counters.fanout.total == 2
        assert counters.fanout.count(2) == 1


class TestTransactionSemantics:
    """Pin the transaction-counting contract: transactions == used_bus.

    A reference is a bus transaction exactly when its outcome carries at
    least one non-overlapped op with a positive count.  Empty op lists,
    zero-count ops, and overlapped-only directory checks are all free.
    """

    def test_empty_op_list_is_not_a_transaction(self):
        counters = SimulationCounters()
        counters.record(_outcome(Event.READ_HIT))
        assert counters.ops.transactions == 0

    def test_zero_count_op_is_not_a_transaction(self):
        counters = SimulationCounters()
        counters.record(_outcome(Event.WH_BLK_CLEAN, ops=[(BusOp.INVALIDATE, 0)]))
        assert counters.ops.transactions == 0
        assert BusOp.INVALIDATE not in counters.ops.ops

    def test_mixed_ops_count_one_transaction(self):
        counters = SimulationCounters()
        counters.record(
            _outcome(
                Event.RM_BLK_DIRTY,
                ops=[
                    (BusOp.DIR_CHECK_OVERLAPPED, 1),
                    (BusOp.FLUSH_REQUEST, 1),
                    (BusOp.WRITE_BACK, 1),
                ],
            )
        )
        assert counters.ops.transactions == 1

    def test_transactions_equal_bus_using_outcomes(self):
        """The counter must agree with used_bus outcome by outcome."""
        outcomes = [
            _outcome(Event.READ_HIT),
            _outcome(Event.READ_HIT, ops=[(BusOp.DIR_CHECK_OVERLAPPED, 1)]),
            _outcome(Event.RM_BLK_CLEAN, ops=[(BusOp.MEM_ACCESS, 1)]),
            _outcome(Event.WH_BLK_CLEAN, ops=[(BusOp.INVALIDATE, 2)], fanout=2),
            _outcome(Event.WH_BLK_CLEAN, ops=[(BusOp.INVALIDATE, 0)], fanout=0),
        ]
        counters = SimulationCounters()
        for outcome in outcomes:
            counters.record(outcome)
        expected = sum(1 for outcome in outcomes if outcome.used_bus)
        assert counters.ops.transactions == expected == 2

    def test_every_protocol_keeps_transactions_consistent(self):
        """Audit: over a real trace, no protocol emits a bus-using outcome
        whose op list would have been skipped by the old empty-list guard,
        and the transaction tally always equals the used_bus count."""
        from repro.protocols.registry import PROTOCOLS, create_protocol
        from repro.trace import standard_trace

        trace = list(standard_trace("POPS", scale=1 / 1024))
        for name in sorted(PROTOCOLS):
            protocol = create_protocol(name, 4)
            counters = SimulationCounters()
            used_bus = 0
            units = {}
            for record in trace:
                unit = units.setdefault(record.pid, len(units))
                outcome = protocol.access(unit, record.access, record.address // 16)
                if outcome.used_bus:
                    assert outcome.ops, (
                        f"{name}: bus-using outcome with empty op list"
                    )
                    used_bus += 1
                counters.record(outcome)
            assert counters.ops.transactions == used_bus, name


class TestEventFrequencies:
    def _frequencies(self):
        counters = SimulationCounters()
        for _ in range(50):
            counters.record(_outcome(Event.INSTR))
        for _ in range(30):
            counters.record(_outcome(Event.READ_HIT))
        for _ in range(5):
            counters.record(_outcome(Event.RM_BLK_CLEAN))
        for _ in range(2):
            counters.record(_outcome(Event.RM_FIRST_REF))
        for _ in range(10):
            counters.record(_outcome(Event.WH_BLK_DIRTY))
        for _ in range(3):
            counters.record(_outcome(Event.WM_BLK_DIRTY))
        return counters.frequencies()

    def test_percent(self):
        freq = self._frequencies()
        assert freq.percent(Event.INSTR) == 50.0
        assert freq.percent(Event.RM_BLK_CLEAN) == 5.0

    def test_aggregates(self):
        freq = self._frequencies()
        assert freq.read_misses == 5.0
        assert freq.reads == 30.0 + 5.0 + 2.0
        assert freq.write_hits == 10.0
        assert freq.write_misses == 3.0
        assert freq.writes == 13.0

    def test_miss_rates(self):
        freq = self._frequencies()
        assert freq.data_miss_rate == 8.0
        assert freq.data_miss_rate_with_first_refs == 10.0

    def test_rows_sum_consistently(self):
        freq = self._frequencies()
        rows = freq.as_dict()
        assert rows["instr"] + rows["read"] + rows["write"] == pytest.approx(
            100.0
        )
        assert rows["rd-hit"] + rows["rd-miss(rm)"] + rows[
            "rm-first-ref"
        ] == pytest.approx(rows["read"])

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            SimulationCounters().frequencies()
