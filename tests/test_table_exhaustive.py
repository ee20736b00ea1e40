"""Exhaustive single-block differential test of the fast backend's tables.

Hypothesis (``tests/test_backend_differential.py``) samples traces; this
suite enumerates.  For every table-compiled protocol and 2, 3 and 4
caches, the model checker's state search, with reads and writes only,
steps a :class:`FastPipeline` beside the reference on every edge and
asserts equal counter signatures: the edges cover each reachable
transition of each table once.  One instruction fetch per process (no
coherence traffic) makes process ``i`` the fast backend's cache ``i``.
"""

from __future__ import annotations

import pytest

from conftest import trace_of
from repro.core import SimulationCounters
from repro.core.fastsim import FastPipeline
from repro.core.modelcheck import _explore
from repro.interconnect.bus import BusOp
from repro.protocols.directory.dirnnb import DirnNB
from repro.protocols.registry import create_protocol, protocol_names
from repro.protocols.snoopy.wti import WTI
from repro.protocols.table import TableError
from repro.trace.record import AccessType

#: The protocols the fast backend runs through the reference pipeline.
HOLDOUTS = (
    "coarse",
    "competitive",
    "competitive2",
    "competitive8",
    "dir2nb",
    "dir4nb",
)

N_CACHES = (2, 3, 4)
#: The protocols the fast backend runs a transition table for, with their
#: reachable single-block states at 2, 3 and 4 caches: 601
#: states and 4,090 edges in all.  A search that silently stops early, or
#: a protocol change that alters what is reachable, shows here.
REACHABLE = {
    "berkeley": (8, 20, 48),
    "dir0b": (6, 11, 20),
    "dir1b": (6, 11, 20),
    "dir1nb": (5, 7, 9),
    "dir2b": (6, 11, 20),
    "dir4b": (6, 11, 20),
    "dirnnb": (6, 11, 20),
    "dragon": (8, 20, 48),
    "firefly": (6, 11, 20),
    "illinois": (6, 11, 20),
    "softflush": (5, 7, 9),
    "tang": (6, 11, 20),
    "writeonce": (8, 14, 24),
    "wti": (4, 8, 16),
    "yenfu": (6, 11, 20),
}
_INSTR_ADDRESS = 1 << 20


class _FastBeside:
    """The fast backend, stepped beside the reference on every edge."""

    def __init__(self, name: str, n_caches: int) -> None:
        self.pipeline = FastPipeline(create_protocol(name, n_caches))
        assert self.pipeline.uses_table
        warmup = trace_of([(unit, "i", _INSTR_ADDRESS) for unit in range(n_caches)])
        self.pipeline.feed(warmup, SimulationCounters())

    def step(self, step, expected: SimulationCounters) -> None:
        cache, access, block = step
        kind = "r" if access is AccessType.READ else "w"
        counters = SimulationCounters()
        self.pipeline.feed(trace_of([(cache, kind, block * 16)]), counters)
        assert counters.signature() == expected.signature(), step


@pytest.mark.parametrize("n_caches", N_CACHES)
@pytest.mark.parametrize("name", sorted(REACHABLE))
def test_every_reachable_transition_matches(name, n_caches):
    beside = _FastBeside(name, n_caches)
    report, _ = _explore(
        lambda n: create_protocol(name, n), n_caches, evictions=False, companion=beside
    )
    assert report.ok, report.render()
    assert report.states == REACHABLE[name][N_CACHES.index(n_caches)]
    assert report.edges == report.states * 2 * n_caches


def test_table_protocols_are_exactly_the_compiled_set():
    """Pin which protocols run the table kernel and which fall back."""
    compiled = {
        name
        for name in protocol_names()
        if FastPipeline(create_protocol(name, 4)).uses_table
    }
    assert compiled == set(REACHABLE)
    assert set(protocol_names()) - compiled == set(HOLDOUTS)


# -- derivation corner cases ---------------------------------------------------


class _WritesRaise(WTI):
    """A reference that rejects every write: no write condition maps."""

    def _write(self, cache, block, first_ref):
        raise ValueError("read-only scheme")


class _CappedInvalidation(DirnNB):
    """Invalidation costs min(F, 2): not a line in F once F reaches 3."""

    def _invalidation_ops(self, fanout):
        return ((BusOp.INVALIDATE, min(fanout, 2)),)


class _ReadsFillLastCache(WTI):
    """A read also fills the last cache: no kernel action expresses it."""

    def _read(self, cache, block, first_ref):
        outcome = super()._read(cache, block, first_ref)
        self.sharing.add_holder(block, self.n_caches - 1)
        return outcome


def _mapped(table, write):
    return [
        code
        for code, index in enumerate(table.dispatch)
        if index is not None and code & 1 == write
    ]


def test_conditions_the_reference_rejects_stay_unmapped():
    table = _WritesRaise(4).compile_table()
    assert _mapped(table, write=1) == []
    assert _mapped(table, write=0) == _mapped(WTI(4).compile_table(), write=0)
    pipeline = FastPipeline(_WritesRaise(4))
    assert pipeline.uses_table
    pipeline.feed(trace_of([(0, "r", 0)]), SimulationCounters())
    with pytest.raises(TableError, match="no derived transition"):
        pipeline.feed(trace_of([(0, "w", 0)]), SimulationCounters())


def test_costs_nonlinear_in_f_stay_unmapped():
    write_hit_clean_shared = 1 | 4 | 32  # write, held, 1 <= F
    assert DirnNB(4).compile_table().dispatch[write_hit_clean_shared] is not None
    table = _CappedInvalidation(4).compile_table()
    assert table.dispatch[write_hit_clean_shared] is None
    # With at most three caches F <= 2, where min(F, 2) is the line F.
    for n_caches in (2, 3):
        table = _CappedInvalidation(n_caches).compile_table()
        assert table.dispatch[write_hit_clean_shared] is not None


def test_state_changes_outside_the_vocabulary_stay_unmapped():
    table = _ReadsFillLastCache(4).compile_table()
    assert _mapped(table, write=0) == []
    assert _mapped(table, write=1) == _mapped(WTI(4).compile_table(), write=1)


def test_derivation_leaves_the_protocol_untouched():
    protocol = create_protocol("yenfu", 4)
    for cache, access, block in [
        (0, AccessType.READ, 1),
        (1, AccessType.READ, 1),
        (2, AccessType.WRITE, 2),
        (3, AccessType.READ, 3),
    ]:
        protocol.access(cache, access, block)

    def observable():
        sharing = protocol.sharing
        return (
            dict(sharing.cached_blocks()),
            [sharing.dirty_owner(block) for block in range(5)],
            dict(protocol._single),
            [protocol.seen(block) for block in range(5)],
        )

    before = observable()
    assert protocol.compile_table().has_aux
    assert observable() == before
