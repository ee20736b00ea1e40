"""Durable service state: the journal, crash recovery, and the chaos seams.

The contracts from the issue:

- every job state transition lands in a crash-safe, fsynced service
  journal whose load tolerates a torn tail (property-tested: truncate
  the file at *any* byte offset and recovery proceeds from the last
  intact record);
- a restarted :class:`JobManager` replays the journal — terminal jobs
  come back queryable, interrupted jobs are re-queued, orphaned sweep
  children are SIGKILLed (pid **and** kernel start time must match, so
  recycled pids are never signalled);
- a re-queued job re-runs through the shared ``ResultCache``, so cells
  the dead incarnation finished are cache hits — **zero duplicate
  simulations**, proven by the kill-9 integration test at the bottom
  against a never-crashed run of the same grid (bit-identical counter
  signatures);
- injected journal write failures (``journal-error`` faults) degrade
  the service instead of killing it, and the degradation is visible in
  ``/readyz``'s payload.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import FaultPlan, FaultSpec
from repro.runner.sweep import run_sweep
from repro.service import (
    SERVICE_JOURNAL_NAME,
    JobManager,
    ServiceClient,
    ServiceJournal,
    start_background,
)
from repro.service.journal import pid_start_time
from repro.service.schema import REQUEST_SCHEMA_VERSION, parse_request

#: 1/512 of the paper's trace lengths — a few thousand references per cell.
FAST_SCALE = 512


def doc(*protocols, scale=FAST_SCALE, traces=("POPS",), **extra):
    """A minimal valid request document."""
    sweep = {
        "protocols": list(protocols),
        "traces": list(traces),
        "scale": scale,
    }
    sweep.update(extra)
    return {"schema": REQUEST_SCHEMA_VERSION, "sweep": sweep}


def wait_terminal(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state in ("finished", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job.job_id} still {job.state}")


# -- pid_start_time ------------------------------------------------------------


class TestPidStartTime:
    def test_own_pid_has_a_start_time(self):
        start = pid_start_time(os.getpid())
        assert isinstance(start, str) and start.isdigit()

    def test_dead_pid_returns_none(self):
        # Max pid is bounded well below this on any Linux we run on.
        assert pid_start_time(2**22 + 12345) is None

    def test_stable_across_calls(self):
        assert pid_start_time(os.getpid()) == pid_start_time(os.getpid())


# -- ServiceJournal ------------------------------------------------------------


class TestServiceJournal:
    def journal(self, tmp_path, **kwargs):
        return ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME, **kwargs)

    def test_round_trip_merges_per_job(self, tmp_path):
        journal = self.journal(tmp_path)
        assert journal.record("a", "submitted", request={"x": 1}, cells=3)
        assert journal.record("a", "queued")
        assert journal.record("a", "running", pid=123)
        assert journal.record("b", "submitted", request={"y": 2}, cells=1)
        jobs = journal.load()
        assert set(jobs) == {"a", "b"}
        # Last intact state wins; the submitted-only fields survive.
        assert jobs["a"]["state"] == "running"
        assert jobs["a"]["request"] == {"x": 1}
        assert jobs["a"]["pid"] == 123
        assert jobs["b"]["state"] == "submitted"

    def test_missing_file_loads_empty(self, tmp_path):
        assert self.journal(tmp_path).load() == {}

    def test_torn_tail_is_skipped(self, tmp_path):
        journal = self.journal(tmp_path)
        journal.record("a", "submitted", request={"x": 1})
        journal.record("a", "finished")
        with journal.path.open("a") as handle:
            handle.write('{"event": "job", "id": "a", "state": "expi')
        jobs = journal.load()
        assert jobs["a"]["state"] == "finished"

    def test_journal_torn_fault_writes_a_half_line(self, tmp_path):
        plan = FaultPlan(
            faults=(FaultSpec(cell="finished", kind="journal-torn"),)
        )
        journal = self.journal(tmp_path, plan=plan)
        journal.record("a", "submitted", request={"x": 1})
        journal.record("a", "finished")
        assert not journal.path.read_text().endswith("\n")
        assert journal.load()["a"]["state"] == "submitted"

    def test_journal_error_fault_degrades_not_raises(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(
            faults=(FaultSpec(cell="queued", kind="journal-error"),)
        )
        journal = self.journal(tmp_path, plan=plan, registry=registry)
        assert journal.record("a", "submitted", request={})
        assert journal.record("a", "queued") is False
        assert registry.counter_value("service.journal_errors") == 1
        # Only the first append of "queued" matches (attempt defaults to 1).
        assert journal.record("b", "queued")

    def test_compact_rewrites_one_line_per_job(self, tmp_path):
        journal = self.journal(tmp_path)
        for state in ("submitted", "queued", "running", "finished"):
            journal.record("a", state)
        journal.record("b", "submitted")
        jobs = journal.load()
        del jobs["b"]
        journal.compact(jobs)
        lines = journal.path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert journal.load()["a"]["state"] == "finished"

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=10_000))
    def test_truncated_at_any_offset_loads_cleanly(self, tmp_path_factory, cut):
        """The hypothesis property from the issue: chop the journal at an
        arbitrary byte offset; load() never raises, and every record
        strictly before the cut survives the merge."""
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        states = ("submitted", "queued", "running", "finished")
        for index, state in enumerate(states):
            journal.record("job", state, seq=index)
        raw = journal.path.read_bytes()
        offset = min(cut, len(raw))
        journal.path.write_bytes(raw[:offset])
        jobs = journal.load()  # must not raise, whatever the cut
        # The survivors are the complete JSON lines — a cut landing on a
        # line's closing brace but before its newline still leaves a full
        # record, so count parseable segments rather than newlines.
        intact = 0
        for segment in raw[:offset].split(b"\n"):
            try:
                json.loads(segment)
            except ValueError:
                continue
            intact += 1
        if intact == 0:
            assert jobs == {}
        else:
            assert jobs["job"]["state"] == states[intact - 1]
            assert jobs["job"]["seq"] == intact - 1


# -- JobManager recovery -------------------------------------------------------


class TestRecovery:
    def test_terminal_job_restored_across_restart(self, tmp_path):
        root = tmp_path / "svc"
        manager = JobManager(root, workers=1)
        job = manager.submit(doc("dir0b"), client="t", idempotency_key="k1")
        wait_terminal(job)
        assert job.state == "finished"
        manager.shutdown()

        reborn = JobManager(root, workers=1)
        assert reborn.wait_recovered(10)
        got = reborn.get(job.job_id)
        assert got is not None and got.state == "finished"
        assert got.recovered and got.snapshot()["recovered"]
        assert reborn.registry.counter_value("service.jobs_recovered") == 1
        assert reborn.registry.timer("service.recovery").count == 1
        # The idempotency map survives the restart too.
        again = reborn.submit(doc("dir0b"), client="t", idempotency_key="k1")
        assert again.job_id == job.job_id
        reborn.shutdown()

    def test_interrupted_job_requeued_and_finishes(self, tmp_path):
        root = tmp_path / "svc"
        # Simulate the aftermath of a SIGKILL: a journal whose last intact
        # state is "queued", with no manager alive to run it.
        journal = ServiceJournal(root / "state" / SERVICE_JOURNAL_NAME)
        payload = doc("dir0b", "dir1nb")
        request = parse_request(payload)
        journal.record(
            "deadbeef0001",
            "submitted",
            sweep_key=request.sweep_key(),
            client="t",
            idempotency_key=None,
            request=payload,
            cells=len(request.specs),
            submitted_at=time.time(),
        )
        journal.record("deadbeef0001", "queued")

        manager = JobManager(root, workers=1)
        assert manager.wait_recovered(10)
        job = manager.get("deadbeef0001")
        assert job is not None and job.recovered
        wait_terminal(job)
        assert job.state == "finished"
        assert job.result_path.exists()
        assert manager.registry.counter_value("service.jobs_recovered") == 1
        manager.shutdown()

    def test_requeued_job_reuses_cached_cells(self, tmp_path):
        """The zero-duplicate-simulation contract, manager-level: every
        cell the dead incarnation completed is served from the cache."""
        root = tmp_path / "svc"
        payload = doc("dir0b", "dir1nb", "dir2b")
        # First incarnation finishes the whole grid (filling the cache)...
        first = JobManager(root, workers=1)
        job = first.submit(payload, client="t")
        wait_terminal(job)
        result = json.loads(job.result_path.read_text())
        assert result["simulated"] == result["cells"] > 0
        first.shutdown()
        # ...but its journal says the job never finished.
        journal = ServiceJournal(root / "state" / SERVICE_JOURNAL_NAME)
        request = parse_request(payload)
        journal.compact({})  # drop the finished record; rebuild as interrupted
        journal.record(
            "deadbeef0002",
            "submitted",
            sweep_key=request.sweep_key(),
            client="t",
            request=payload,
            cells=len(request.specs),
            submitted_at=time.time(),
        )
        journal.record("deadbeef0002", "running")

        reborn = JobManager(root, workers=1)
        assert reborn.wait_recovered(10)
        recovered = wait_terminal(reborn.get("deadbeef0002"))
        assert recovered.state == "finished"
        replay = json.loads(recovered.result_path.read_text())
        assert replay["simulated"] == 0
        assert replay["cache_hits"] == replay["cells"]
        # Bit-identical to the original run, cell for cell.
        original = {o["cell_id"]: o["signature"] for o in result["outcomes"]}
        for outcome in replay["outcomes"]:
            assert outcome["signature"] == original[outcome["cell_id"]]
        reborn.shutdown()

    def test_unparseable_submitted_record_fails_terminally(self, tmp_path):
        root = tmp_path / "svc"
        journal = ServiceJournal(root / "state" / SERVICE_JOURNAL_NAME)
        journal.record("deadbeef0003", "submitted", request={"nope": True})
        journal.record("deadbeef0003", "queued")
        manager = JobManager(root, workers=1)
        assert manager.wait_recovered(10)
        job = manager.get("deadbeef0003")
        assert job is not None and job.state == "failed"
        assert "unrecoverable" in job.error
        manager.shutdown()

    def test_dropped_states_are_not_resurrected(self, tmp_path):
        root = tmp_path / "svc"
        journal = ServiceJournal(root / "state" / SERVICE_JOURNAL_NAME)
        journal.record("gone1", "submitted", request=doc("dir0b"))
        journal.record("gone1", "rejected")
        journal.record("gone2", "submitted", request=doc("dir0b"))
        journal.record("gone2", "finished")
        journal.record("gone2", "expired")
        manager = JobManager(root, workers=1)
        assert manager.wait_recovered(10)
        assert manager.get("gone1") is None
        assert manager.get("gone2") is None
        assert manager.registry.counter_value("service.jobs_recovered") == 0
        manager.shutdown()

    def test_recovery_compacts_the_journal(self, tmp_path):
        root = tmp_path / "svc"
        manager = JobManager(root, workers=1)
        for protocol in ("dir0b", "dir1nb"):
            wait_terminal(manager.submit(doc(protocol), client="t"))
        manager.shutdown()
        journal_path = root / "state" / SERVICE_JOURNAL_NAME
        assert len(journal_path.read_text().strip().splitlines()) > 2
        reborn = JobManager(root, workers=1)
        assert reborn.wait_recovered(10)
        assert len(journal_path.read_text().strip().splitlines()) == 2
        reborn.shutdown()

    def test_orphaned_child_is_reaped(self, tmp_path):
        root = tmp_path / "svc"
        victim = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
        try:
            journal = ServiceJournal(root / "state" / SERVICE_JOURNAL_NAME)
            journal.record("deadbeef0004", "submitted", request=doc("dir0b"))
            journal.record(
                "deadbeef0004",
                "running",
                pid=victim.pid,
                pid_start=pid_start_time(victim.pid),
            )
            manager = JobManager(root, workers=1)
            assert manager.wait_recovered(10)
            assert victim.wait(timeout=10) == -signal.SIGKILL
            assert manager.registry.counter_value("service.jobs_orphaned") == 1
            wait_terminal(manager.get("deadbeef0004"))
            manager.shutdown()
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()

    def test_recycled_pid_is_left_alone(self, tmp_path):
        root = tmp_path / "svc"
        bystander = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"]
        )
        try:
            journal = ServiceJournal(root / "state" / SERVICE_JOURNAL_NAME)
            journal.record("deadbeef0005", "submitted", request=doc("dir0b"))
            # Same pid, *different* kernel start time: the journalled child
            # died and the OS recycled its pid onto an innocent process.
            journal.record(
                "deadbeef0005", "running", pid=bystander.pid, pid_start="1"
            )
            manager = JobManager(root, workers=1)
            assert manager.wait_recovered(10)
            assert bystander.poll() is None  # untouched
            assert manager.registry.counter_value("service.jobs_orphaned") == 0
            manager.shutdown()
        finally:
            bystander.kill()
            bystander.wait()

    def test_no_journal_no_recovery_thread(self, tmp_path):
        manager = JobManager(tmp_path / "svc", workers=1)
        assert not manager.recovering
        assert manager.registry.timer("service.recovery").count == 0
        manager.shutdown()


# -- readiness and degradation over HTTP ---------------------------------------


class TestReadiness:
    def test_healthz_is_liveness_readyz_is_readiness(self, tmp_path):
        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            health = client.health()
            assert health["ok"] is True
            assert health["degraded"] == []
            ready = client.ready()
            assert ready["ready"] is True
        finally:
            handle.stop(drain=False)

    def test_readyz_503_while_recovering_healthz_still_200(self, tmp_path):
        from repro.service import ServiceError

        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            manager._recovered.clear()  # freeze "recovery in progress"
            assert client.health()["ok"] is True
            with pytest.raises(ServiceError) as excinfo:
                client.ready()
            assert excinfo.value.status == 503
            payload = excinfo.value.payload
            assert payload["recovering"] is True
            assert "recovery_in_progress" in payload["degraded"]
        finally:
            manager._recovered.set()
            handle.stop(drain=False)

    def test_journal_errors_degrade_but_stay_ready(self, tmp_path):
        plan = FaultPlan(
            faults=(FaultSpec(cell="queued", kind="journal-error"),)
        )
        manager = JobManager(tmp_path / "svc", workers=1, fault_plan=plan)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            job_id = client.submit(doc("dir0b"))["id"]
            client.wait(job_id, timeout=60)
            ready = client.ready()  # degraded, but still 200
            assert ready["ready"] is True
            assert ready["journal_errors"] == 1
            assert "journal_errors" in ready["degraded"]
        finally:
            handle.stop(drain=False)


# -- client retry and idempotency over HTTP ------------------------------------


class TestClientRetryAndIdempotency:
    def test_idempotency_key_header_replays_the_job(self, tmp_path):
        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            first = client.submit(doc("dir0b"), idempotency_key="retry-1")
            client.wait(first["id"], timeout=60)
            second = client.submit(doc("dir0b"), idempotency_key="retry-1")
            assert second["id"] == first["id"]
            assert second["state"] == "finished"
            assert (
                manager.registry.counter_value("service.jobs_idempotent") == 1
            )
        finally:
            handle.stop(drain=False)

    def test_body_idempotency_key_equivalent_to_header(self, tmp_path):
        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            body = doc("dir0b")
            body["idempotency_key"] = "retry-2"
            first = client.submit(body)
            second = client.submit(body)
            assert second["id"] == first["id"]
        finally:
            handle.stop(drain=False)

    def test_invalid_idempotency_key_is_422(self, tmp_path):
        from repro.service import ServiceError

        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(doc("dir0b"), idempotency_key="x" * 500)
            assert excinfo.value.status == 422
        finally:
            handle.stop(drain=False)

    def test_cancel_on_terminal_job_is_idempotent(self, tmp_path):
        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            job_id = client.submit(doc("dir0b"))["id"]
            done = client.wait(job_id, timeout=60)
            assert done["state"] == "finished"
            # Cancelling a finished job: 200 with the terminal state, twice.
            for _ in range(2):
                snapshot = client.cancel(job_id)
                assert snapshot["state"] == "finished"
        finally:
            handle.stop(drain=False)

    def test_client_retries_503_until_success(self, tmp_path):
        from repro.resilience import RetryPolicy

        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(
            handle.base_url,
            client="tester",
            retry=RetryPolicy(retries=5, base_seconds=0.05, cap_seconds=0.2),
        )
        try:
            manager._draining = True  # -> 503 on submit

            def undrain():
                time.sleep(0.3)
                manager._draining = False

            t = threading.Thread(target=undrain)
            t.start()
            job = client.submit(doc("dir0b"))
            t.join()
            assert "id" in job
            # The retrying client stamped its own idempotency key.
            assert "idempotency_key" in job
        finally:
            handle.stop(drain=False)

    def test_client_without_retry_sees_the_503(self, tmp_path):
        from repro.service import ServiceError

        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(handle.base_url, client="tester")
        try:
            manager._draining = True
            with pytest.raises(ServiceError) as excinfo:
                client.submit(doc("dir0b"))
            assert excinfo.value.status == 503
        finally:
            manager._draining = False
            handle.stop(drain=False)

    def test_retry_gives_up_after_budget(self, tmp_path):
        from repro.resilience import RetryPolicy
        from repro.service import ServiceError

        manager = JobManager(tmp_path / "svc", workers=1)
        handle = start_background(manager)
        client = ServiceClient(
            handle.base_url,
            client="tester",
            retry=RetryPolicy(retries=2, base_seconds=0.01, cap_seconds=0.02),
        )
        try:
            manager._draining = True
            before = manager.registry.counter_value("service.http_requests")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(doc("dir0b"))
            assert excinfo.value.status == 503
            after = manager.registry.counter_value("service.http_requests")
            assert after - before == 3  # first try + two retries
        finally:
            manager._draining = False
            handle.stop(drain=False)

    def test_connection_errors_retry_too(self, tmp_path):
        from repro.resilience import RetryPolicy

        # Nothing listens here; every attempt fails at the socket layer.
        client = ServiceClient(
            "http://127.0.0.1:1",
            client="tester",
            retry=RetryPolicy(retries=2, base_seconds=0.01, cap_seconds=0.02),
        )
        start = time.monotonic()
        with pytest.raises(OSError):
            client.health()
        # Three attempts with two backoffs in between happened.
        assert time.monotonic() - start >= 0.01


# -- the crash harness: kill -9 the real server, restart, prove no rework ------


SERVE_SNIPPET = """
import sys
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def start_serve(root: Path, port: int = 0, extra=(), log_name="serve.log"):
    """`repro-coherence serve` as a real subprocess; returns (proc, base_url).

    Each incarnation needs its own ``log_name``: the ready-line scan would
    otherwise find the *previous* incarnation's ``listening on`` line.
    """
    log_path = root / log_name
    log = log_path.open("ab")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            SERVE_SNIPPET,
            "--cache-dir",
            str(root / "svc"),
            "serve",
            "--port",
            str(port),
            "--workers",
            "1",
            *extra,
        ],
        stdout=log,
        stderr=log,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    deadline = time.monotonic() + 30.0
    base_url = None
    while time.monotonic() < deadline and base_url is None:
        if proc.poll() is not None:
            break
        for line in log_path.read_bytes().splitlines():
            if line.startswith(b"listening on "):
                base_url = line.split()[-1].decode()
                break
        time.sleep(0.05)
    log.close()
    if base_url is None:
        proc.kill()
        raise RuntimeError(f"serve did not start: {log_path.read_text()}")
    return proc, base_url


@pytest.mark.slow
class TestKillNineRecovery:
    """SIGKILL the real serve process mid-sweep; restart; prove zero rework."""

    # Scale 32 keeps each cell slow enough (~0.5s) to kill the server with
    # some cells finished and some not.
    GRID = {
        "schema": REQUEST_SCHEMA_VERSION,
        "sweep": {
            "protocols": ["dir0b", "dir1nb", "dirnnb"],
            "traces": ["POPS"],
            "scale": 32,
        },
        "options": {"jobs": 1},
    }

    def cached_cells(self, root: Path) -> int:
        cache = root / "svc" / "cache"
        return len(list(cache.glob("*.pkl"))) if cache.exists() else 0

    def test_kill9_restart_zero_duplicate_simulations(self, tmp_path):
        proc, base_url = start_serve(tmp_path)
        client = ServiceClient(base_url, client="chaos")
        job_id = client.submit(self.GRID, idempotency_key="chaos-1")["id"]

        # Let some cells finish, then SIGKILL the server mid-sweep.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and self.cached_cells(tmp_path) < 1:
            time.sleep(0.05)
        assert self.cached_cells(tmp_path) >= 1, "no cell finished in time"
        # Find the sweep child before killing the parent, so we can assert
        # the restarted server reaps it (or it died with the parent).
        journal = ServiceJournal(
            tmp_path / "svc" / "state" / SERVICE_JOURNAL_NAME
        )
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        record = journal.load().get(job_id, {})
        assert record.get("state") in ("submitted", "queued", "running")
        # The sweep child survives its parent's SIGKILL and would keep
        # caching cells; freeze the crash state by killing it too (exactly
        # what a whole-machine crash would do).  Orphan *reaping* has its
        # own test above.
        pid = record.get("pid")
        if pid is not None and pid_start_time(pid) == record.get("pid_start"):
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while (
                time.monotonic() < deadline
                and pid_start_time(pid) == record.get("pid_start")
            ):
                time.sleep(0.05)
        finished_before = self.cached_cells(tmp_path)

        # Restart on the same root: recovery must re-queue and finish the
        # job, simulating only the cells the first incarnation never cached.
        proc2, base_url2 = start_serve(tmp_path, log_name="serve2.log")
        try:
            client2 = ServiceClient(base_url2, client="chaos")
            done = client2.wait(job_id, timeout=300, poll_seconds=0.2)
            assert done["state"] == "finished"
            assert done["recovered"] is True
            result = client2.result(job_id)
            cells = result["cells"]
            assert result["simulated"] == cells - finished_before
            assert result["cache_hits"] == finished_before
            metrics = client2.metrics()
            for line in metrics.splitlines():
                if line.startswith("repro_sweep_simulated_total "):
                    assert int(line.split()[-1]) == cells - finished_before
                if line.startswith("repro_service_jobs_recovered_total "):
                    assert int(line.split()[-1]) == 1
            # An orphaned child, if one survived the parent's SIGKILL, was
            # reaped before the re-queue; either way nothing raced the cache.
            pid = record.get("pid")
            if pid is not None:
                assert pid_start_time(pid) != record.get("pid_start")
        finally:
            os.kill(proc2.pid, signal.SIGTERM)
            proc2.wait(timeout=30)

        # The recovered run is bit-identical to a never-crashed local run.
        specs = list(parse_request(self.GRID).specs)
        direct = run_sweep(specs, jobs=1)
        expected = {
            outcome.spec.cell_id(): outcome.result.counters.signature()
            for outcome in direct.outcomes
        }
        for outcome in result["outcomes"]:
            assert outcome["signature"] == expected[outcome["cell_id"]]

    def test_serve_kill_fault_then_restart(self, tmp_path):
        """The deterministic chaos seam: the server SIGKILLs *itself* via
        an injected ``serve-kill`` fault as the first job starts running,
        and a plain restart recovers it.

        The worker may pick the job up, and the kill land, before the
        submit's response is written: the job is journaled by then, so a
        resubmit under the same idempotency key finds it after restart.
        """
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "faults": [
                        {"cell": "running", "kind": "serve-kill", "attempt": 1}
                    ],
                }
            )
        )
        proc, base_url = start_serve(tmp_path, extra=("--fault-plan", str(plan)))
        client = ServiceClient(base_url, client="chaos")
        payload = dict(self.GRID, sweep=dict(self.GRID["sweep"], scale=512))
        try:
            job_id = client.submit(payload, idempotency_key="chaos-2")["id"]
        except (http.client.HTTPException, OSError):
            job_id = None  # the kill beat the response out
        assert proc.wait(timeout=60) == -signal.SIGKILL

        proc2, base_url2 = start_serve(tmp_path, log_name="serve2.log")
        try:
            client2 = ServiceClient(base_url2, client="chaos")
            recovered_id = client2.submit(payload, idempotency_key="chaos-2")["id"]
            assert job_id in (None, recovered_id)
            done = client2.wait(recovered_id, timeout=120)
            assert done["state"] == "finished"
            assert done["recovered"] is True
        finally:
            os.kill(proc2.pid, signal.SIGTERM)
            proc2.wait(timeout=30)
