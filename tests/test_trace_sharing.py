"""Inline sweeps generate each distinct trace once and share it.

``run_sweep``'s inline path keys a per-call memo by ``RunSpec.profile()``,
the only input ``RunSpec.build_trace`` reads: the first pending cell of a
profile generates its trace, later cells and retries are served it, and it
is dropped after its last pending cell.  These tests pin that the shared
trace changes no counter, is generated exactly once per distinct profile
per cold sweep, is never written to, and survives a retried cell.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.spec as spec_module
from repro.resilience import FaultPlan, FaultSpec
from repro.runner import ResultCache, RunSpec, run_sweep
from repro.trace.stream import SharingModel

SCALE = 1.0 / 1024.0


@functools.lru_cache(maxsize=512)
def _standalone(spec: RunSpec) -> dict:
    """The counter signature of ``spec`` simulated on its own."""
    return spec.run().counters.signature()


@pytest.fixture
def generated(monkeypatch):
    """Every trace ``RunSpec.build_trace`` returns, in call order."""
    traces = []
    build_trace = RunSpec.build_trace

    def counting(self):
        trace = build_trace(self)
        traces.append(trace)
        return trace

    monkeypatch.setattr(RunSpec, "build_trace", counting)
    return traces


def _grid(protocols=("dir0b", "dragon"), traces=("POPS", "THOR"), **axes):
    return [
        RunSpec(protocol, trace, scale=SCALE, **axes)
        for protocol in protocols
        for trace in traces
    ]


_cells = st.builds(
    RunSpec,
    protocol=st.sampled_from(("dir1nb", "dir0b", "wti", "dragon", "dir2nb")),
    trace=st.sampled_from(("POPS", "THOR")),
    scale=st.just(SCALE),
    block_size=st.sampled_from((8, 16, 32)),
    sharing_model=st.sampled_from(tuple(SharingModel)),
    seed=st.sampled_from((None, 3)),
    geometry=st.sampled_from((None, "8x2", "16x4")),
    backend=st.sampled_from(("reference", "fast")),
    characterization=st.sampled_from((None, "pipelined", "non-pipelined")),
)


@settings(max_examples=30, deadline=None)
@given(specs=st.lists(_cells, min_size=2, max_size=6))
def test_shared_trace_sweep_matches_each_cell_run_alone(specs):
    """Sharing a trace across schemes, block sizes, geometries, sharing
    models, backends and pricings changes no cell's counters."""
    report = run_sweep(specs)
    assert not report.failures
    for outcome in report.outcomes:
        expected = _standalone(outcome.spec.base_spec())
        assert outcome.result.counters.signature() == expected
    assert report.trace_generations == len({spec.profile() for spec in specs})


def test_one_generation_per_distinct_profile_per_cold_sweep(
    generated, tmp_path
):
    """Block size and protocol do not enter the profile, so eight cells
    over two traces generate two traces; a warm sweep generates none and
    a cold sweep into a fresh cache generates them again."""
    specs = _grid() + _grid(block_size=32)
    cache = ResultCache(tmp_path / "first")
    cold = run_sweep(specs, cache=cache)
    assert len(generated) == cold.trace_generations == 2
    assert cold.simulations == len(specs)
    warm = run_sweep(specs, cache=cache)
    assert len(generated) == 2 and warm.trace_generations == 0
    again = run_sweep(specs, cache=ResultCache(tmp_path / "second"))
    assert len(generated) == 4 and again.trace_generations == 2
    assert again.metrics_dict()["trace_generations"] == 2
    assert "2 traces generated" in again.render_metrics()


def test_seed_and_scale_make_distinct_traces(generated):
    specs = (
        _grid(traces=("POPS",))
        + _grid(traces=("POPS",), seed=5)
        + [RunSpec("dir0b", "POPS", scale=SCALE / 2)]
    )
    report = run_sweep(specs)
    assert len(generated) == report.trace_generations == 3


def test_shared_trace_columns_are_unchanged_by_its_cells(
    generated, monkeypatch
):
    specs = [
        RunSpec(protocol, "POPS", scale=SCALE, backend=backend, geometry=geometry)
        for protocol in ("dir0b", "dragon", "dir2nb")
        for backend in ("reference", "fast")
        for geometry in (None, "8x2")
    ]
    before = []

    def snapshot(trace):
        return [bytes(getattr(trace, name)) for name in trace.__slots__]

    counting = RunSpec.build_trace  # the fixture's wrapper keeps the trace

    def snapshotting(self):
        trace = counting(self)
        before.append(snapshot(trace))
        return trace

    monkeypatch.setattr(RunSpec, "build_trace", snapshotting)
    report = run_sweep(specs)
    assert not report.failures and report.simulations == len(specs)
    (trace,) = generated
    assert snapshot(trace) == before[0]


def test_trace_is_dropped_after_its_last_pending_cell(monkeypatch):
    """At most the traces that still have pending cells stay alive."""
    specs = [
        RunSpec(protocol, trace, scale=SCALE)
        for trace in ("POPS", "THOR")
        for protocol in ("dir0b", "dragon")
    ]
    held = []
    run = RunSpec.run

    def watching(self, probe=None, traces=None):
        held.append(len(traces))
        return run(self, probe=probe, traces=traces)

    monkeypatch.setattr(RunSpec, "run", watching)
    run_sweep(specs)
    assert held == [0, 1, 0, 1]


def test_retried_cell_reuses_the_memoised_trace(generated):
    """An injected fault on the second POPS cell's first attempt: the
    retry is served the trace the first cell generated."""
    specs = _grid(traces=("POPS",))
    plan = FaultPlan(
        faults=(FaultSpec(cell="dragon:POPS:*", kind="raise", attempt=1),)
    )
    report = run_sweep(specs, retry=1, faults=plan)
    assert not report.failures
    assert report.registry.counter_value("sweep.retries") == 1
    assert len(generated) == report.trace_generations == 1
    for outcome in report.outcomes:
        assert outcome.result.counters.signature() == _standalone(outcome.spec)


def test_attempt_that_fails_after_generating_leaves_its_trace(
    generated, monkeypatch
):
    """A simulation that raises after its trace was generated: the retry
    reuses that trace, and the generation counts once."""
    (spec,) = _grid(protocols=("dir0b",), traces=("THOR",))
    simulate = spec_module.simulate
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(spec_module, "simulate", flaky)
    report = run_sweep([spec], retry=1)
    assert not report.failures and len(calls) == 2
    assert len(generated) == report.trace_generations == 1
    assert report.outcomes[0].result.counters.signature() == _standalone(spec)


def test_executor_cells_each_generate_their_own_trace():
    specs = _grid(traces=("POPS",))
    report = run_sweep(specs, jobs=2)
    assert not report.failures
    assert report.trace_generations == report.simulations == 2
    assert report.registry.counter_value("sweep.trace_generations") == 2
