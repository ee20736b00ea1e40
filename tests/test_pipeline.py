"""Tests for the unified reference pipeline: stages, wrappers, composition.

The behavioural equivalences (finite-vs-infinite counters) live in
test_finite.py; this module exercises the pipeline API itself — stage
selection, oracle wrapping, invariant cadence, and the composability the
refactor exists to provide.
"""

import pytest

from repro.core.counters import SimulationCounters
from repro.core.pipeline import ReferencePipeline, SetAssociativeLRU
from repro.memory.cache import CacheGeometry
from repro.protocols.registry import create_protocol
from repro.trace.synthetic import SyntheticWorkload, WorkloadProfile

_PROFILE = WorkloadProfile(name="PIPE", length=300, seed=11, processes=4)
_TRACE = list(SyntheticWorkload(_PROFILE).records())
_TINY = CacheGeometry(n_sets=4, associativity=2)


def _pipeline(**kwargs) -> ReferencePipeline:
    return ReferencePipeline(create_protocol("dir0b", 4), **kwargs)


class TestStageSelection:
    def test_no_geometry_means_no_stage(self):
        result = _pipeline().run(_TRACE, "PIPE")
        assert result.geometry is None
        assert result.evictions == 0

    def test_geometry_builds_lru_stage_and_stamps_result(self):
        result = _pipeline(geometry=_TINY).run(_TRACE, "PIPE")
        assert result.geometry == "4x2"
        assert result.evictions > 0

    def test_instruction_fetches_bypass_the_stage(self):
        protocol = create_protocol("dir0b", 1)
        pipeline = ReferencePipeline(protocol, geometry=_TINY)
        stage = pipeline._stage
        from repro.trace.record import AccessType

        pipeline.step(0, AccessType.INSTR, 123, SimulationCounters())
        assert isinstance(stage, SetAssociativeLRU)
        assert not stage.caches[0].touch(123)

    def test_rejects_nonpositive_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            _pipeline(block_size=0)


class TestUnitResolution:
    def test_too_many_sharing_units_rejected(self):
        pipeline = ReferencePipeline(create_protocol("dir0b", 2))
        with pytest.raises(ValueError, match="more than 2 sharing units"):
            pipeline.run(_TRACE, "PIPE")


class TestOracleWrapping:
    def test_check_values_exposes_a_live_oracle(self):
        pipeline = _pipeline(check_values=True)
        assert pipeline.oracle is not None
        pipeline.run(_TRACE, "PIPE")
        assert pipeline.oracle.writes > 0
        pipeline.oracle.check_all_copies()  # coherent protocol: no raise

    def test_oracle_composes_with_finite_geometry(self):
        pipeline = _pipeline(check_values=True, geometry=_TINY)
        result = pipeline.run(_TRACE, "PIPE")
        assert result.geometry == "4x2" and result.evictions > 0
        pipeline.oracle.check_all_copies()


class TestInvariantCadence:
    def test_invariant_checks_run_on_schedule(self, monkeypatch):
        from repro.memory import SharingTable

        pipeline = _pipeline(check_invariants_every=50)
        calls = []
        original = SharingTable.check_invariants
        monkeypatch.setattr(
            SharingTable,
            "check_invariants",
            lambda self: calls.append(1) or original(self),
        )
        pipeline.run(_TRACE, "PIPE")
        assert len(calls) == len(_TRACE) // 50


class TestWrappersShareTheEngine:
    def test_simulate_is_a_pipeline_wrapper(self):
        from repro.core.simulator import simulate

        direct = _pipeline().run(_TRACE, "PIPE")
        wrapped = simulate(create_protocol("dir0b", 4), _TRACE, trace_name="PIPE")
        assert wrapped.counters.events == direct.counters.events
        assert wrapped.counters.ops.ops == direct.counters.ops.ops

    def test_every_wrapper_routes_through_the_one_feed_loop(self, monkeypatch):
        """Acceptance: simulate (infinite and finite) and validate_coherence
        all drive ReferencePipeline.feed — the package's single
        reference-feed loop — once per run, rather than iterating traces
        themselves."""
        from repro.core.oracle import validate_coherence
        from repro.core.simulator import simulate

        calls = []
        original = ReferencePipeline.feed

        def counting_feed(self, trace, counters):
            calls.append(1)
            return original(self, trace, counters)

        monkeypatch.setattr(ReferencePipeline, "feed", counting_feed)

        simulate(create_protocol("dir0b", 4), _TRACE)
        assert len(calls) == 1
        simulate(create_protocol("dir0b", 4), _TRACE, geometry=_TINY)
        assert len(calls) == 2
        validate_coherence(create_protocol("dir0b", 4), _TRACE)
        assert len(calls) == 3
