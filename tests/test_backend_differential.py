"""Cross-backend differential harness: fast == reference, bit for bit.

The fast backend's whole claim is that its table kernel reconstructs
*exactly* the counters the reference feed loop produces.  This suite proves
it property-style: hypothesis generates adversarial little traces (arbitrary
interleavings of reads/writes/instruction fetches over a small block set,
up to ``n_caches`` sharing units) and every registered protocol is run
through both backends — under infinite and finite geometries, on record and
packed input, and with the kernel's internal batch size shrunk to arbitrary
values — asserting equality of the full counter state: events, bus-op
multisets, transactions, references, evictions, dirty evictions, and the
Figure 1 fan-out histogram.

Protocols whose ``compile_table()`` is ``None`` exercise the fast backend's
reference-fidelity fallback path through the same assertions.
"""

from __future__ import annotations

from typing import List
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import trace_of
from repro.core import SimulationCounters, fastsim, simulate
from repro.core.fastsim import FastPipeline
from repro.core.pipeline import ReferencePipeline
from repro.memory.cache import CacheGeometry
from repro.obs.probe import CollectingProbe
from repro.protocols.registry import create_protocol, protocol_names
from repro.trace.record import TraceRecord

N_CACHES = 4
ALL_PROTOCOLS = sorted(protocol_names())

#: (unit, kind, block) specs; block addresses are block * 16 so the default
#: block size maps them back 1:1.  Blocks 0..5 over at most 4 units keeps
#: traces small while forcing heavy sharing, and the "2x1" / "2x2"
#: geometries force constant capacity evictions over 6 blocks.
_SPECS = st.lists(
    st.tuples(
        st.integers(0, N_CACHES - 1),
        st.sampled_from("rrwwi"),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=120,
)

_GEOMETRIES = st.sampled_from([None, "2x1", "2x2", "4x2"])


def _trace(specs) -> List[TraceRecord]:
    return trace_of([(unit, kind, block * 16) for unit, kind, block in specs])


def _geometry(spec):
    return None if spec is None else CacheGeometry.parse(spec)


def signature(counters: SimulationCounters):
    """Everything a SimulationCounters holds, as comparable plain data."""
    return {
        "events": dict(counters.events),
        "ops": dict(counters.ops.ops),
        "transactions": counters.ops.transactions,
        "references": counters.ops.references,
        "fanout": counters.fanout.as_dict(),
        "evictions": counters.evictions,
        "dirty_evictions": counters.dirty_evictions,
    }


def reference_signature(name, trace, geometry):
    pipeline = ReferencePipeline(create_protocol(name, N_CACHES), geometry=geometry)
    counters = SimulationCounters()
    pipeline.feed(trace, counters)
    return signature(counters)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_backends_bit_identical(name, data):
    """Fast == reference on arbitrary traces and geometries."""
    trace = _trace(data.draw(_SPECS))
    geometry = _geometry(data.draw(_GEOMETRIES))
    expected = reference_signature(name, trace, geometry)

    # Whole-trace run.
    fast = FastPipeline(create_protocol(name, N_CACHES), geometry=geometry)
    counters = SimulationCounters()
    fast.feed(trace, counters)
    assert signature(counters) == expected


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_packed_column_decode_bit_identical(name, data):
    """The vectorised PackedTrace path matches the reference loop too."""
    from repro.trace.packed import PackedTrace

    trace = _trace(data.draw(_SPECS))
    geometry = _geometry(data.draw(_GEOMETRIES))
    expected = reference_signature(name, trace, geometry)
    packed = PackedTrace.from_records(trace)

    fast = FastPipeline(create_protocol(name, N_CACHES), geometry=geometry)
    assert signature(fast.run(packed, "t").counters) == expected


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("name", ALL_PROTOCOLS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batch_boundaries_are_invisible(name, packed, data):
    """The kernel's internal batches never change what a run counts.

    Drawn traces are far shorter than ``BATCH_SIZE`` (4,096 references) and
    would fit in one batch, so the test shrinks it to a drawn size: state
    must carry across every batch boundary, including a batch of one and a
    single batch covering the whole trace.  Fallback protocols batch too
    when they decode packed columns.
    """
    trace = _trace(data.draw(_SPECS))
    geometry = _geometry(data.draw(_GEOMETRIES))
    batch = data.draw(st.integers(1, len(trace) + 1))
    expected = reference_signature(name, trace, geometry)
    if packed:
        from repro.trace.packed import PackedTrace

        trace = PackedTrace.from_records(trace)
    with patch.object(fastsim, "BATCH_SIZE", batch):
        fast = FastPipeline(create_protocol(name, N_CACHES), geometry=geometry)
        assert signature(fast.run(trace, "t").counters) == expected


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fidelity_path_batch_boundaries_are_invisible(name, data):
    """Packed input on the reference-fidelity path decodes its columns in
    kernel batches too: with a probe attached, the probe's stream (indices,
    units, accesses, blocks, outcomes) and the counters match one reference
    pass over the records, whatever the batch size."""
    from repro.trace.packed import PackedTrace

    trace = _trace(data.draw(_SPECS))
    geometry = _geometry(data.draw(_GEOMETRIES))
    batch = data.draw(st.integers(1, len(trace) + 1))
    ref_probe = CollectingProbe()
    expected = ReferencePipeline(
        create_protocol(name, N_CACHES), geometry=geometry, probe=ref_probe
    ).run(trace, "t")
    probe = CollectingProbe()
    with patch.object(fastsim, "BATCH_SIZE", batch):
        fast = FastPipeline(
            create_protocol(name, N_CACHES), geometry=geometry, probe=probe
        )
        assert not fast.uses_table
        result = fast.run(PackedTrace.from_records(trace), "t")
    assert signature(result.counters) == signature(expected.counters)
    assert probe.events == ref_probe.events


class TestCoverageAndModes:
    def test_every_protocol_constructs_a_fast_pipeline(self):
        for name in ALL_PROTOCOLS:
            FastPipeline(create_protocol(name, N_CACHES))

    def test_table_mode_covers_the_paper_core(self):
        # The schemes the paper's tables compare must all take the kernel.
        for name in ("dir0b", "dir1b", "dir4b", "dirnnb", "wti", "dragon"):
            assert FastPipeline(create_protocol(name, N_CACHES)).uses_table

    def test_uncompilable_protocols_fall_back(self):
        for name in ("coarse", "dir2nb", "competitive"):
            pipeline = FastPipeline(create_protocol(name, N_CACHES))
            assert not pipeline.uses_table

    def test_simulate_backend_knob(self, tiny_trace):
        ref = simulate(create_protocol("dir0b", 4), tiny_trace)
        fast = simulate(create_protocol("dir0b", 4), tiny_trace, backend="fast")
        assert signature(ref.counters) == signature(fast.counters)

    def test_unknown_backend_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            simulate(create_protocol("dir0b", 4), tiny_trace, backend="turbo")

    def test_table_mode_never_mutates_the_protocol(self, tiny_trace):
        protocol = create_protocol("dir0b", 4)
        FastPipeline(protocol).run(tiny_trace, "t")
        assert not protocol.sharing.holders(0)
        assert not protocol.seen(0)


class TestProbes:
    def test_probe_forces_fidelity_path(self, tiny_trace):
        probe = CollectingProbe()
        pipeline = FastPipeline(create_protocol("dir0b", 4), probe=probe)
        assert not pipeline.uses_table
        result = pipeline.run(tiny_trace, "t")
        assert len(probe.events) == len(tiny_trace)
        assert result.references == len(tiny_trace)


class TestFidelityFallbacks:
    def test_check_values_routes_through_oracle(self, tiny_trace):
        pipeline = FastPipeline(create_protocol("dir0b", 4), check_values=True)
        assert not pipeline.uses_table
        assert pipeline.oracle is not None
        pipeline.run(tiny_trace, "t")

    def test_invariant_checks_force_fidelity_path(self, tiny_trace):
        pipeline = FastPipeline(
            create_protocol("dir0b", 4), check_invariants_every=1
        )
        assert not pipeline.uses_table
        pipeline.run(tiny_trace, "t")

    def test_unit_overflow_raises_like_reference(self):
        trace = _trace([(0, "r", 0), (1, "r", 0), (2, "r", 0)])
        pipeline = FastPipeline(create_protocol("dir0b", 2))
        with pytest.raises(ValueError, match="sharing units"):
            pipeline.run(trace, "t")

    def test_unit_overflow_raises_on_packed_decode(self):
        from repro.trace.packed import PackedTrace

        packed = PackedTrace.from_records(
            _trace([(0, "r", 0), (1, "r", 0), (2, "r", 0)])
        )
        pipeline = FastPipeline(create_protocol("dir0b", 2))
        with pytest.raises(ValueError, match="sharing units"):
            pipeline.run(packed, "t")
