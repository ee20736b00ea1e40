"""Tests for the resilience layer: isolation, retries, timeouts, journal, faults.

Every failure in here is *injected* through a seeded
:class:`~repro.resilience.faults.FaultPlan` — no sleeping on real flaky
resources, no wall-clock randomness — so the whole suite is deterministic:
the same plan produces the same failures in the same cells on the same
attempts, run after run.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    CellEvent,
    CellExecutor,
    CellFailure,
    FaultPlan,
    FaultSpec,
    FaultyCache,
    InjectedFault,
    RetryPolicy,
    RunError,
    SweepInterrupted,
    SweepJournal,
)
from repro.runner import ResultCache, RunOutcome, RunSpec, run_sweep

#: Minuscule traces keep every simulated cell around a few milliseconds.
SCALE = 1.0 / 2048.0


def grid(protocols=("dir0b",), traces=("POPS", "THOR")):
    return [RunSpec(p, t, scale=SCALE) for p in protocols for t in traces]


def plan(*faults, seed=0):
    return FaultPlan(faults=tuple(faults), seed=seed)


def same(a, b):
    """Bit-identity for results (SimulationResult has no deep __eq__)."""
    return pickle.dumps(a) == pickle.dumps(b)


class TestRunError:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown error kind"):
            RunError(kind="cosmic-ray", exc_type="X", message="m", attempts=1)

    def test_summary_is_one_deterministic_line(self):
        error = RunError(
            kind="timeout", exc_type="CellTimeout", message="too slow",
            attempts=3, worker=1234, elapsed=9.9,
        )
        assert error.summary() == (
            "timeout: CellTimeout: too slow (after 3 attempts)"
        )
        assert "1234" not in error.summary()  # pids are not deterministic

    def test_dict_round_trip(self):
        error = RunError(
            kind="worker-crash", exc_type="Signal(9)", message="killed",
            attempts=2, worker=77, elapsed=0.5, traceback="tb",
        )
        assert RunError.from_dict(error.to_dict()) == error


class TestRetryPolicy:
    def test_max_attempts_is_retries_plus_one(self):
        assert RetryPolicy().max_attempts == 1
        assert RetryPolicy(retries=3).max_attempts == 4

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(retries=3, base_seconds=0.1)
        assert policy.delay("k", 1) == policy.delay("k", 1)
        assert policy.delay("k", 1) != policy.delay("other", 1)

    def test_delay_doubles_then_caps(self):
        policy = RetryPolicy(retries=9, base_seconds=0.1, cap_seconds=0.4)
        # Jitter scales by [0.5, 1.0), so bounds bracket base * 2^(n-1).
        for attempt, raw in [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.4)]:
            delay = policy.delay("cell", attempt)
            assert raw * 0.5 <= delay < raw

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay("k", 0)


class TestSweepJournal:
    def test_records_round_trip_last_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.journal.jsonl")
        journal.record_start(cells=2, jobs=1)
        error = RunError(
            kind="exception", exc_type="Boom", message="x", attempts=2
        )
        journal.record_cell("k1", "cell-1", "failed", attempts=2, error=error)
        journal.record_cell("k2", "cell-2", "ok", cached=True)
        journal.record_cell("k1", "cell-1", "ok", attempts=1, elapsed=0.5)
        journal.record_end("finished", ok=2, failed=0)
        records = journal.load()
        assert set(records) == {"k1", "k2"}
        assert records["k1"]["status"] == "ok"  # the retry's record wins
        assert records["k2"]["cached"] is True
        assert journal.successes().keys() == {"k1", "k2"}
        assert journal.failures() == {}

    def test_failed_record_carries_the_error(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.journal.jsonl")
        error = RunError(
            kind="timeout", exc_type="CellTimeout", message="slow", attempts=3
        )
        journal.record_cell("k", "cell", "failed", attempts=3, error=error)
        record = journal.failures()["k"]
        assert RunError.from_dict(record["error"]) == error

    def test_torn_tail_line_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.journal.jsonl")
        journal.record_cell("k1", "cell-1", "ok")
        journal.record_cell("k2", "cell-2", "ok")
        # Simulate a writer SIGKILLed mid-append: truncate the last line.
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-9])
        records = journal.load()
        assert set(records) == {"k1"}

    def test_missing_journal_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "nope.journal.jsonl").load() == {}

    def test_sweep_key_ignores_axis_order(self):
        assert SweepJournal.sweep_key(["b", "a"]) == SweepJournal.sweep_key(
            ["a", "b"]
        )
        assert SweepJournal.sweep_key(["a"]) != SweepJournal.sweep_key(["b"])

    def test_for_sweep_names_file_by_grid(self, tmp_path):
        journal = SweepJournal.for_sweep(tmp_path, ["a", "b"])
        assert journal.path.parent == tmp_path
        assert journal.path.name.endswith(".journal.jsonl")
        assert SweepJournal.sweep_key(["a", "b"]) in journal.path.name


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(cell="*", kind="meteor")

    def test_fires_matches_cell_pattern_and_attempt(self):
        fault = FaultSpec(cell="dir0b:POPS:*", kind="raise", attempt=2)
        assert fault.fires("dir0b:POPS:b16:ginf:process:seedcal", 2)
        assert not fault.fires("dir0b:POPS:b16:ginf:process:seedcal", 1)
        assert not fault.fires("dragon:POPS:b16:ginf:process:seedcal", 2)

    def test_attempt_none_is_permanent(self):
        fault = FaultSpec(cell="*", kind="raise", attempt=None)
        assert all(fault.fires("anything", n) for n in (1, 2, 5))

    def test_fire_worker_faults_raises_injected(self):
        p = plan(FaultSpec(cell="*", kind="raise", message="boom"))
        with pytest.raises(InjectedFault, match="boom"):
            p.fire_worker_faults("cell", 1)
        p.fire_worker_faults("cell", 2)  # attempt 2: fault spent, no-op

    def test_kill_fault_is_skipped_inline(self):
        p = plan(FaultSpec(cell="*", kind="kill"))
        p.fire_worker_faults("cell", 1, allow_kill=False)  # must not die

    def test_should_interrupt_and_cache_fault(self):
        p = plan(
            FaultSpec(cell="a:*", kind="interrupt"),
            FaultSpec(cell="b:*", kind="put-error"),
        )
        assert p.should_interrupt("a:1", 1)
        assert not p.should_interrupt("b:1", 1)
        assert p.cache_fault("b:1", 1).kind == "put-error"
        assert p.cache_fault("a:1", 1) is None
        assert p.has_cache_faults and not p.has_worker_kills

    def test_json_round_trip(self, tmp_path):
        p = plan(
            FaultSpec(cell="*", kind="delay", attempt=None, value=1.5),
            FaultSpec(cell="x:*", kind="raise", message="m"),
            seed=42,
        )
        path = tmp_path / "plan.json"
        p.dump(path)
        assert FaultPlan.load(path) == p

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="cannot read fault plan"):
            FaultPlan.load(path)

    def test_sample_is_deterministic_in_seed(self):
        cells = [f"cell-{i}" for i in range(50)]
        one = FaultPlan.sample(cells, kinds=("raise", "kill"), rate=0.3, seed=7)
        two = FaultPlan.sample(cells, kinds=("raise", "kill"), rate=0.3, seed=7)
        other = FaultPlan.sample(cells, kinds=("raise", "kill"), rate=0.3, seed=8)
        assert one == two
        assert one != other
        assert 0 < len(one.faults) < len(cells)

    def test_sample_rate_bounds(self):
        assert FaultPlan.sample(["a"], rate=0.0).faults == ()
        assert len(FaultPlan.sample(["a", "b"], rate=1.0).faults) == 2
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.sample(["a"], rate=1.5)


class TestFaultyCache:
    def spec_key_cell(self):
        spec = grid(traces=("POPS",))[0]
        return spec, spec.cache_key(), spec.cell_id()

    def test_put_error_degrades_gracefully(self, tmp_path):
        spec, key, cell = self.spec_key_cell()
        registry = MetricsRegistry()
        cache = FaultyCache(
            tmp_path,
            plan(FaultSpec(cell=cell, kind="put-error")),
            registry=registry,
        )
        cache.register_cell(key, cell)
        result = spec.run()
        assert cache.put(key, result) is False  # first put: injected OSError
        assert cache.put_errors == 1
        assert registry.counter("cache.put_errors").value == 1
        assert cache.get(key) is None  # nothing landed on disk
        assert cache.put(key, result) is True  # fault spent: second put lands
        assert same(cache.get(key), result)

    @pytest.mark.parametrize("kind", ["short-write", "corrupt"])
    def test_damaged_entries_detected_on_get(self, tmp_path, kind):
        spec, key, cell = self.spec_key_cell()
        cache = FaultyCache(tmp_path, plan(FaultSpec(cell=cell, kind=kind)))
        cache.register_cell(key, cell)
        assert cache.put(key, spec.run()) is True  # damage lands silently
        assert cache.get(key) is None  # ... and is caught on read
        assert cache.corrupt == 1
        assert not cache.path_for(key).exists()  # entry was removed

    def test_unmatched_cells_pass_through(self, tmp_path):
        spec, key, cell = self.spec_key_cell()
        cache = FaultyCache(
            tmp_path, plan(FaultSpec(cell="no-such-cell:*", kind="put-error"))
        )
        cache.register_cell(key, cell)
        result = spec.run()
        assert cache.put(key, result) is True
        assert same(cache.get(key), result)


class TestResultCacheDegradation:
    def test_put_oserror_returns_false_and_counts(self, tmp_path, monkeypatch):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = grid(traces=("POPS",))[0]

        def explode(key, tmp, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "_write_result", explode)
        assert cache.put(spec.cache_key(), spec.run()) is False
        assert cache.put_errors == 1
        assert registry.counter("cache.put_errors").value == 1
        assert len(cache) == 0

    def test_leftover_tmp_files_swept_on_open(self, tmp_path):
        (tmp_path / "deadbeef.pkl.123.tmp").write_bytes(b"partial")
        (tmp_path / "keep.pkl").write_bytes(b"entry")
        ResultCache(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert (tmp_path / "keep.pkl").exists()


class TestCellExecutor:
    def test_runs_a_cell_and_reports_ok(self):
        spec = grid(traces=("POPS",))[0]
        executor = CellExecutor(jobs=1)
        executor.submit(0, spec)
        events = []
        while executor.active:
            events.extend(executor.poll())
        [event] = events
        assert event.ok and event.index == 0 and event.attempt == 1
        result, elapsed, pid, manifest = event.payload
        assert same(result, spec.run())
        assert manifest.worker_pid == pid

    def test_exception_becomes_event_not_crash(self):
        spec = grid(traces=("POPS",))[0]
        executor = CellExecutor(
            jobs=1,
            faults=plan(FaultSpec(cell="*", kind="raise", message="bang")),
        )
        executor.submit(0, spec)
        events = []
        while executor.active:
            events.extend(executor.poll())
        [event] = events
        assert not event.ok
        assert event.kind == "exception"
        assert event.exc_type == "InjectedFault"
        assert event.message == "bang"
        assert event.traceback and "InjectedFault" in event.traceback

    def test_sigkilled_worker_detected_as_crash(self):
        spec = grid(traces=("POPS",))[0]
        executor = CellExecutor(
            jobs=1, faults=plan(FaultSpec(cell="*", kind="kill"))
        )
        executor.submit(0, spec)
        events = []
        while executor.active:
            events.extend(executor.poll())
        [event] = events
        assert event.kind == "worker-crash"
        assert event.exc_type == "Signal(9)"

    def test_overrunning_cell_is_killed_and_reported(self):
        spec = grid(traces=("POPS",))[0]
        executor = CellExecutor(
            jobs=1,
            timeout=0.3,
            faults=plan(FaultSpec(cell="*", kind="delay", value=30.0)),
        )
        executor.submit(0, spec)
        events = []
        while executor.active:
            events.extend(executor.poll())
        [event] = events
        assert event.kind == "timeout"
        assert event.exc_type == "CellTimeout"
        assert "0.3s" in event.message

    def test_abort_kills_everything(self):
        specs = grid(protocols=("dir0b", "dragon"), traces=("POPS", "THOR"))
        executor = CellExecutor(
            jobs=2, faults=plan(FaultSpec(cell="*", kind="delay", value=30.0))
        )
        for index, spec in enumerate(specs):
            executor.submit(index, spec)
        executor.poll()  # start some workers
        assert executor.abort() == len(specs)
        assert not executor.active


class TestRunOutcome:
    def test_carries_exactly_one_of_result_or_error(self):
        spec = grid(traces=("POPS",))[0]
        error = RunError(kind="exception", exc_type="X", message="m", attempts=1)
        with pytest.raises(ValueError, match="exactly one"):
            RunOutcome(
                spec=spec, result=None, cached=False, elapsed=0.0, worker=0
            )
        outcome = RunOutcome(
            spec=spec, result=None, cached=False, elapsed=0.0, worker=0,
            error=error,
        )
        assert not outcome.ok


class TestSweepFailureIsolation:
    PERMANENT = FaultSpec(
        cell="dir0b:POPS:*", kind="raise", attempt=None, message="hw fault"
    )

    def test_fail_fast_is_still_the_default(self):
        with pytest.raises(CellFailure, match="hw fault") as excinfo:
            run_sweep(grid(), faults=plan(self.PERMANENT))
        assert excinfo.value.error.kind == "exception"
        assert excinfo.value.cell.startswith("dir0b:POPS")

    def test_keep_going_completes_the_rest_of_the_grid(self):
        report = run_sweep(grid(), keep_going=True, faults=plan(self.PERMANENT))
        assert report.cells == 2
        assert len(report.failures) == 1
        assert len(report.successes) == 1
        [failed] = report.failures
        assert failed.error.kind == "exception"
        assert failed.error.exc_type == "InjectedFault"
        assert failed.manifest.error["message"] == "hw fault"
        assert report.registry.counter("sweep.failures").value == 1

    def test_max_failures_bounds_keep_going(self):
        everywhere = FaultSpec(cell="*", kind="raise", attempt=None)
        with pytest.raises(CellFailure, match="max_failures=1"):
            run_sweep(
                grid(), keep_going=True, max_failures=1, faults=plan(everywhere)
            )

    def test_retry_recovers_a_transient_fault(self):
        transient = FaultSpec(cell="dir0b:POPS:*", kind="raise", attempt=1)
        registry = MetricsRegistry()
        report = run_sweep(
            grid(),
            retry=RetryPolicy(retries=1, base_seconds=0.001),
            faults=plan(transient),
            registry=registry,
        )
        assert not report.failures
        assert registry.counter("sweep.retries").value == 1
        clean = run_sweep(grid())
        assert all(
            same(a.result, b.result)
            for a, b in zip(report.outcomes, clean.outcomes)
        )

    def test_exhausted_retries_report_total_attempts(self):
        report = run_sweep(
            grid(traces=("POPS",)),
            retry=RetryPolicy(retries=2, base_seconds=0.001),
            keep_going=True,
            faults=plan(self.PERMANENT),
        )
        [failed] = report.failures
        assert failed.error.attempts == 3

    def test_killed_worker_recovers_on_retry(self):
        killed = FaultSpec(cell="dir0b:POPS:*", kind="kill", attempt=1)
        registry = MetricsRegistry()
        report = run_sweep(
            grid(),
            jobs=2,
            retry=RetryPolicy(retries=1, base_seconds=0.001),
            faults=plan(killed),
            registry=registry,
        )
        assert not report.failures
        assert registry.counter("sweep.retries").value == 1
        assert same(report.outcomes[0].result, grid()[0].run())

    def test_timeout_is_killed_counted_and_recovers_on_retry(self):
        slow_once = FaultSpec(
            cell="dir0b:POPS:*", kind="delay", attempt=1, value=30.0
        )
        registry = MetricsRegistry()
        report = run_sweep(
            grid(),
            cell_timeout=0.3,
            retry=RetryPolicy(retries=1, base_seconds=0.001),
            faults=plan(slow_once),
            registry=registry,
        )
        assert not report.failures
        assert registry.counter("sweep.timeouts").value == 1
        assert registry.counter("sweep.retries").value == 1

    def test_permanent_timeout_fails_with_timeout_kind(self):
        always_slow = FaultSpec(
            cell="dir0b:POPS:*", kind="delay", attempt=None, value=30.0
        )
        report = run_sweep(
            grid(), cell_timeout=0.3, keep_going=True, faults=plan(always_slow)
        )
        [failed] = report.failures
        assert failed.error.kind == "timeout"
        assert failed.error.exc_type == "CellTimeout"

    def test_failed_cells_render_deterministically(self):
        report = run_sweep(
            grid(), keep_going=True, faults=plan(self.PERMANENT)
        )
        table = report.cell_table()
        assert "FAILED" in table and "exception" in table
        failure_table = report.failure_table()
        assert "InjectedFault: hw fault" in failure_table
        again = run_sweep(grid(), keep_going=True, faults=plan(self.PERMANENT))
        assert again.cell_table() == table
        assert again.failure_table() == failure_table
        assert run_sweep(grid()).failure_table() == "no failures"

    def test_comparison_refuses_a_grid_with_failures(self):
        report = run_sweep(grid(), keep_going=True, faults=plan(self.PERMANENT))
        with pytest.raises(ValueError, match="failed cells"):
            report.comparison()

    def test_metrics_dict_lists_failures(self):
        report = run_sweep(grid(), keep_going=True, faults=plan(self.PERMANENT))
        [entry] = report.metrics_dict()["failures"]
        assert entry["kind"] == "exception"
        assert entry["cell"].startswith("dir0b:POPS")

    def test_validation_of_resilience_knobs(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            run_sweep(grid(), cell_timeout=0.0)
        with pytest.raises(ValueError, match="max_failures"):
            run_sweep(grid(), max_failures=-1)
        with pytest.raises(ValueError, match="requires a journal"):
            run_sweep(grid(), resume=True)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout):
        # NaN compares false with everything, so it used to pass "<= 0" and
        # run with no effective timeout.
        with pytest.raises(ValueError, match="finite"):
            run_sweep(grid(), cell_timeout=timeout)
        with pytest.raises(ValueError, match="finite"):
            CellExecutor(jobs=1, timeout=timeout)


class TestJournalAndResume:
    def test_sweep_journals_every_cell(self, tmp_path):
        specs = grid()
        cache = ResultCache(tmp_path)
        journal = SweepJournal.for_sweep(
            tmp_path, [s.cache_key() for s in specs]
        )
        run_sweep(specs, cache=cache, journal=journal)
        assert journal.successes().keys() == {s.cache_key() for s in specs}
        # Second run: hits are journaled as cached successes.
        run_sweep(specs, cache=cache, journal=journal)
        assert all(r["cached"] for r in journal.load().values())

    def test_resume_redispatches_only_failures(self, tmp_path):
        specs = grid(protocols=("dir0b", "dragon"))
        cache = ResultCache(tmp_path)
        keys = [s.cache_key() for s in specs]
        journal = SweepJournal.for_sweep(tmp_path, keys)
        broken = FaultSpec(cell="dragon:THOR:*", kind="raise", attempt=None)
        report = run_sweep(
            specs, cache=cache, journal=journal, keep_going=True,
            faults=plan(broken),
        )
        assert len(report.failures) == 1
        # Resume without the fault: only the failed cell re-simulates.
        resumed = run_sweep(
            specs,
            cache=cache,
            journal=SweepJournal.for_sweep(tmp_path, keys),
            resume=True,
        )
        assert resumed.simulations == 1  # zero re-simulation of successes
        assert resumed.cache_hits == 3
        assert not resumed.failures
        assert journal.successes().keys() == set(keys)

    def test_resume_after_interrupt_completes_the_grid(self, tmp_path):
        specs = grid(protocols=("dir0b", "dragon"))
        keys = [s.cache_key() for s in specs]
        cache = ResultCache(tmp_path)
        # SIGINT lands (deterministically) as the second cell completes.
        interrupt = FaultSpec(
            cell=specs[1].cell_id(), kind="interrupt", attempt=None
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(
                specs,
                cache=cache,
                journal=SweepJournal.for_sweep(tmp_path, keys),
                faults=plan(interrupt),
            )
        partial = excinfo.value.report
        assert excinfo.value.total == 4
        assert len(partial.outcomes) == 2
        # Completed cells were flushed to cache and journal before the stop.
        journal = SweepJournal.for_sweep(tmp_path, keys)
        assert len(journal.successes()) == 2
        for outcome in partial.outcomes:
            assert same(cache.get(outcome.spec.cache_key()), outcome.result)
        # Resume completes the remaining half from the journal + cache.
        resumed = run_sweep(
            specs, cache=cache,
            journal=SweepJournal.for_sweep(tmp_path, keys), resume=True,
        )
        assert resumed.cache_hits == 2 and resumed.simulations == 2
        assert all(
            same(o.result, s.run())
            for o, s in zip(resumed.outcomes, specs)
        )

    def test_interrupt_flushes_under_parallel_jobs(self, tmp_path):
        specs = grid(protocols=("dir0b", "dragon"))
        keys = [s.cache_key() for s in specs]
        cache = ResultCache(tmp_path)
        interrupt = FaultSpec(cell="*", kind="interrupt", attempt=None)
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(
                specs, jobs=2, cache=cache,
                journal=SweepJournal.for_sweep(tmp_path, keys),
                faults=plan(interrupt),
            )
        # The very first completion raises, so exactly one cell landed —
        # and it is already durable.
        [outcome] = excinfo.value.report.outcomes
        assert same(cache.get(outcome.spec.cache_key()), outcome.result)
        assert len(SweepJournal.for_sweep(tmp_path, keys).successes()) == 1


class TestFaultedSweepDeterminism:
    """Property: surviving cells are bit-identical to a clean serial sweep."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_transient_faults_never_perturb_results(self, seed):
        specs = grid(protocols=("dir0b", "dragon"))
        sampled = FaultPlan.sample(
            [s.cell_id() for s in specs],
            kinds=("raise",),
            rate=0.5,
            seed=seed,
            attempt=1,
        )
        clean = run_sweep(specs)
        faulted = run_sweep(
            specs,
            jobs=2,
            retry=RetryPolicy(retries=1, base_seconds=0.001),
            faults=sampled,
        )
        assert not faulted.failures
        for faulty, reference in zip(faulted.outcomes, clean.outcomes):
            assert pickle.dumps(faulty.result) == pickle.dumps(reference.result)

    def test_permanent_faults_only_remove_their_cells(self):
        specs = grid(protocols=("dir0b", "dragon"))
        sampled = FaultPlan.sample(
            [s.cell_id() for s in specs],
            kinds=("raise",), rate=0.5, seed=3, attempt=None,
        )
        assert sampled.faults  # seed 3 hits at least one cell
        clean = run_sweep(specs)
        faulted = run_sweep(specs, keep_going=True, faults=sampled)
        assert len(faulted.failures) == len(sampled.faults)
        for faulty, reference in zip(faulted.outcomes, clean.outcomes):
            if faulty.ok:
                assert pickle.dumps(faulty.result) == pickle.dumps(
                    reference.result
                )
