"""Tests for the unified reference pipeline: stages, wrappers, composition.

The behavioural equivalences (finite-vs-infinite counters) live in
test_finite.py; this module exercises the pipeline API itself — stage
selection, oracle wrapping, invariant cadence, and the composability the
refactor exists to provide.
"""

import pytest

from conftest import record
from repro.core.counters import SimulationCounters
from repro.core.pipeline import ReferencePipeline, SetAssociativeLRU
from repro.memory.cache import CacheGeometry
from repro.protocols.registry import create_protocol
from repro.trace.stream import SharingModel
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


def _units(model: SharingModel, trace) -> list:
    """The cache index ``resolve_unit`` assigns each record, in order."""
    pipeline = _pipeline(sharing_model=model)
    return [pipeline.resolve_unit(r) for r in trace]


class TestUnitResolution:
    def test_too_many_sharing_units_rejected(self):
        pipeline = ReferencePipeline(create_protocol("dir0b", 2))
        with pytest.raises(ValueError, match="more than 2 sharing units"):
            pipeline.run(_TRACE, "PIPE")

    @pytest.mark.parametrize(
        "model, units",
        [(SharingModel.PROCESS, [0, 0, 1]), (SharingModel.PROCESSOR, [0, 1, 0])],
    )
    def test_process_model_keys_by_pid(self, model, units):
        """Pid 7 on two cpus is one unit under process sharing, two under
        processor sharing."""
        trace = [
            record(cpu=0, pid=7, address=0),
            record(cpu=1, pid=7, address=16),
            record(cpu=0, pid=9, address=32),
        ]
        assert _units(model, trace) == units

    @pytest.mark.parametrize(
        "model, units",
        [(SharingModel.PROCESS, [0, 1, 0]), (SharingModel.PROCESSOR, [0, 0, 1])],
    )
    def test_processor_model_keys_by_cpu(self, model, units):
        """Cpu 2 running two processes is one unit under processor sharing."""
        trace = [
            record(cpu=2, pid=7, address=0),
            record(cpu=2, pid=9, address=16),
            record(cpu=5, pid=7, address=32),
        ]
        assert _units(model, trace) == units

    @pytest.mark.parametrize("model", list(SharingModel))
    def test_indices_are_dense_and_first_come(self, model):
        trace = [record(cpu=key, pid=key, address=0) for key in (42, 5, 42, 99)]
        assert _units(model, trace) == [0, 1, 0, 2]

    @pytest.mark.parametrize(
        "model, units",
        [(SharingModel.PROCESS, [0, 0, 0]), (SharingModel.PROCESSOR, [0, 1, 2])],
    )
    def test_migrated_process_keeps_its_unit(self, model, units):
        """Process sharing follows pid 7 across cpus 0, 1 and 3 (§4.4)."""
        trace = [record(cpu=cpu, pid=7, address=0) for cpu in (0, 1, 3)]
        assert _units(model, trace) == units


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
