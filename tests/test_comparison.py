"""Unit tests for the multi-protocol comparison runner."""

import pytest

from conftest import trace_of
from repro.analysis.scalability import sweep_dirib, sweep_dirinb
from repro.analysis.spinlock import spin_lock_impact
from repro.core.comparison import run_comparison, run_standard_comparison
from repro.interconnect.bus import Table5Category, pipelined_bus


def _factories():
    """Two tiny deterministic traces."""
    a = trace_of(
        [(0, "r", 0), (1, "r", 0), (0, "w", 0), (1, "r", 0), (2, "w", 16)]
    )
    b = trace_of([(0, "w", 0), (1, "r", 0), (1, "w", 0), (0, "r", 0)])
    return {"A": lambda: iter(list(a)), "B": lambda: iter(list(b))}


class TestRunComparison:
    def test_cross_product_executed(self):
        comparison = run_comparison(
            ("dir0b", "wti"), _factories(), n_caches=4
        )
        assert set(comparison.protocols) == {"dir0b", "wti"}
        assert set(comparison.traces) == {"A", "B"}
        assert comparison.result("dir0b", "A").references == 5

    def test_average_cycles_is_mean_of_traces(self):
        comparison = run_comparison(("dir0b",), _factories(), n_caches=4)
        bus = pipelined_bus()
        per_trace = comparison.per_trace_cycles("dir0b", bus)
        assert comparison.average_cycles("dir0b", bus) == pytest.approx(
            sum(per_trace.values()) / 2
        )

    def test_category_cycles_sum_to_average(self):
        comparison = run_comparison(("dir1nb",), _factories(), n_caches=4)
        bus = pipelined_bus()
        by_category = comparison.average_category_cycles("dir1nb", bus)
        assert sum(by_category.values()) == pytest.approx(
            comparison.average_cycles("dir1nb", bus)
        )
        assert set(by_category) == set(Table5Category)

    def test_event_percent_averaging(self):
        comparison = run_comparison(("dir0b",), _factories(), n_caches=4)
        instr = comparison.average_event_percent("dir0b", "instr")
        assert instr == 0.0  # no instruction fetches in these traces

    def test_pooled_histogram(self):
        comparison = run_comparison(("dir0b",), _factories(), n_caches=4)
        pooled = comparison.pooled_invalidation_histogram("dir0b")
        assert pooled.total >= 1

    def test_requires_protocols_and_traces(self):
        with pytest.raises(ValueError):
            run_comparison((), _factories(), n_caches=4)
        with pytest.raises(ValueError):
            run_comparison(("dir0b",), {}, n_caches=4)

    def test_custom_protocol_factory(self):
        from repro.protocols.directory.dirinb import DiriNB

        comparison = run_comparison(
            ("anything",),
            _factories(),
            n_caches=4,
            protocol_factory=lambda name, n: DiriNB(n, pointers=2),
        )
        assert comparison.result("anything", "A").protocol_name == "dirinb"


@pytest.mark.parametrize(
    "analysis", [spin_lock_impact, sweep_dirib, sweep_dirinb]
)
def test_analyses_reject_an_empty_trace_mapping(analysis):
    """No traces is a usage error, as in run_comparison, not a division by 0."""
    with pytest.raises(ValueError, match="at least one trace is required"):
        analysis({})


class TestStandardComparison:
    def test_runs_paper_schemes_on_three_traces(self):
        comparison = run_standard_comparison(("dir0b",), scale=1 / 512)
        assert tuple(comparison.traces) == ("POPS", "THOR", "PERO")
        assert comparison.result("dir0b", "POPS").references > 0
