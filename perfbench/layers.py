"""Per-layer tracing for the benchmark, recorded from the benchmark's own files.

:func:`install` wraps public calls of each ``repro`` layer (trace
generation, the simulation kernel, pricing, characterization loads, the
result cache, the sweep loop, journals, the cell executor and the service
journal) with span recorders and returns a function that restores the
originals.  Nothing inside ``src/`` changes; the wrappers exist only in a
traced run, so the untraced runs that produce the end-to-end metrics pay
nothing for them.

Every span is appended as one JSON line to ``<trace dir>/<pid>.jsonl``,
one file per process, so spans recorded in forked cell workers, a service
process and its job children all survive however those processes exit
(``os._exit``, SIGTERM).  A span carries its layer, wall-clock start, its
duration and its *self* time (duration minus the wrapped calls nested in
it on the same thread), so the self times of one process add up to the
durations of its root spans.

Trace generation is timed by materialising the trace as a list before the
kernel sees it: generation and simulation are otherwise interleaved by a
lazy generator and no wrapper could separate them.  The counters are
unchanged (the run still checks them against the frozen corpus); the cost
of the extra list shows up in ``obs.tracing_overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Environment variable naming the span directory for traced processes.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Layer name of the benchmark's own span around each timed pass.
PASS_LAYER = "bench.pass"

#: Largest share of the traced wall that may stay unattributed, and the
#: most negative self time a layer may show, before the run fails.
RECONCILE_TOLERANCE = 0.05


class Recorder:
    """Appends span records to one JSONL file per process."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child must not inherit an open span stack, a lock held
        # by another thread, or the parent's file handle.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid: Optional[int] = None
        self._handle = None

    def stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write(self, record: dict) -> None:
        pid = os.getpid()
        with self._lock:
            if self._pid != pid:
                self._handle = open(
                    self.directory / f"{pid}.jsonl", "a", buffering=1,
                    encoding="utf-8",
                )
                self._pid = pid
            record["pid"] = pid
            self._handle.write(json.dumps(record) + "\n")

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self._pid == os.getpid():
                self._handle.close()
            self._handle = None
            self._pid = None

    def span(self, layer: str, fn: Callable, counts=None) -> Callable:
        """``fn`` wrapped in a span of ``layer``.

        ``counts(result, args, kwargs)`` returns the span's count fields
        (references simulated, bytes written...); it runs after the span
        closes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            frame = [0.0]
            stack.append(frame)
            wall_start = time.time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            record = {
                "layer": layer,
                "w0": wall_start,
                "dur": duration,
                "self": duration - frame[0],
                "root": not stack,
            }
            if counts is not None:
                record["n"] = counts(result, args, kwargs)
            self.write(record)
            return result

        return wrapper

    def count(self, layer: str, counts: Dict[str, float]) -> None:
        """A zero-duration record carrying only ``counts``."""
        self.write(
            {
                "layer": layer,
                "w0": time.time(),
                "dur": 0.0,
                "self": 0.0,
                "root": False,
                "n": counts,
            }
        )

    def tally(self, layer: str, fn: Callable, counts: Dict[str, float]) -> Callable:
        """``fn`` with a :meth:`count` of ``counts`` per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(layer, counts)
            return result

        return wrapper


def _file_bytes(*paths: Path) -> int:
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def install(directory: Optional[Path] = None) -> Callable[[], None]:
    """Wrap every traced call; returns a function restoring the originals.

    ``directory`` defaults to ``$PERFBENCH_TRACE_DIR`` (how a traced
    service process is told where to write).
    """
    import repro
    import repro.characterization as characterization_pkg
    import repro.characterization.loader as loader
    import repro.core.pipeline as pipeline
    import repro.core.simulator as simulator
    import repro.interconnect as interconnect_pkg
    import repro.interconnect.costs as costs
    import repro.resilience.executor as executor
    import repro.resilience.journal as journal
    import repro.runner as runner_pkg
    import repro.runner.cache as cache
    import repro.runner.spec as spec
    import repro.runner.sweep as sweep
    import repro.service.jobs as jobs
    import repro.service.journal as service_journal

    if directory is None:
        directory = Path(os.environ[TRACE_DIR_ENV])
    recorder = Recorder(directory)
    patched: List[Tuple[object, str, object]] = []

    def patch(owners: Sequence[object], name: str, make) -> None:
        original = getattr(owners[0], name)
        wrapped = make(original)
        for owner in owners:
            patched.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapped)

    def materialise(build_trace):
        def build_list(self):
            return list(build_trace(self))

        return build_list

    patch(
        [spec.RunSpec], "build_trace",
        lambda fn: recorder.span(
            "trace.generate", materialise(fn),
            lambda result, a, k: {"refs": len(result), "generations": 1},
        ),
    )
    patch(
        [spec], "simulate",
        lambda fn: recorder.span(
            "core.simulate", fn,
            lambda result, a, k: {"refs": result.references, "cells": 1},
        ),
    )
    patch(
        [simulator], "make_pipeline",
        lambda fn: recorder.span(
            "core.simulate", fn,
            lambda result, a, k: (
                {"table": 1}
                if getattr(result, "uses_table", False)
                else {"reference": 1}
            ),
        ),
    )
    patch(
        [costs, pipeline, interconnect_pkg], "summarize_costs",
        lambda fn: recorder.span(
            "interconnect.price", fn, lambda result, a, k: {"calls": 1}
        ),
    )
    patch(
        [loader, characterization_pkg, spec], "load_characterization",
        lambda fn: recorder.span("characterization.load", fn),
    )
    for method in ("cache_key", "base_cache_key"):
        patch(
            [spec.RunSpec], method,
            lambda fn: recorder.span("runner.cache_key", fn),
        )
    patch(
        [cache.ResultCache], "get",
        lambda fn: recorder.span(
            "runner.cache_get", fn,
            lambda result, a, k: (
                {"miss": 1} if result is None else {"hit": 1}
            ),
        ),
    )
    patch(
        [cache.ResultCache], "get_manifest",
        lambda fn: recorder.span("runner.cache_get", fn),
    )

    def put_bytes(stored, args, kwargs):
        store, key = args[0], args[1]
        if not stored:
            return {"bytes": 0}
        return {
            "bytes": _file_bytes(
                store.path_for(key), store.manifest_path_for(key)
            )
        }

    patch(
        [cache.ResultCache], "put",
        lambda fn: recorder.span("runner.cache_put", fn, put_bytes),
    )

    def wrap_run_sweep(fn):
        # Retries are read as a delta of the registry the caller passed in
        # (the service's inline path shares one registry across sweeps).
        spanned = recorder.span("runner.sweep", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            registry = kwargs.get("registry")
            before = (
                registry.counter_value("sweep.retries")
                if registry is not None
                else 0
            )
            report = spanned(*args, **kwargs)
            retries = report.registry.counter_value("sweep.retries") - before
            recorder.count(
                "runner.sweep",
                {"retries": retries, "failed": len(report.failures)},
            )
            return report

        return wrapper

    patch([sweep, runner_pkg, repro, jobs], "run_sweep", wrap_run_sweep)
    patch(
        [sweep.SweepReport], "pricing_table",
        lambda fn: recorder.span("runner.sweep", fn),
    )
    patch(
        [journal, service_journal], "append_jsonl",
        lambda fn: recorder.span(
            "resilience.journal_append", fn,
            lambda result, a, k: {"appends": 1},
        ),
    )
    patch(
        [executor.CellExecutor], "poll",
        lambda fn: recorder.span("resilience.executor", fn),
    )
    patch(
        [executor.CellExecutor], "submit",
        lambda fn: recorder.tally("resilience.executor", fn, {"spawned": 1}),
    )
    patch(
        [service_journal.ServiceJournal], "record",
        lambda fn: recorder.tally("service.journal", fn, {"records": 1}),
    )

    def restore() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        recorder.close()

    restore.recorder = recorder
    return restore


def load(directory: Path, windows: Sequence[Tuple[float, float]]) -> List[dict]:
    """Every span record whose start falls inside one of ``windows``."""
    records: List[dict] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                start = record["w0"]
                if any(lo <= start <= hi for lo, hi in windows):
                    records.append(record)
    return records


class ReconcileError(RuntimeError):
    """The layer self times do not add up to the traced wall."""


def per_layer(
    records: Iterable[dict],
    traced: Sequence,
    bench_pid: int,
    server_pid: Optional[int] = None,
) -> Dict[str, float]:
    """Per-layer metrics per traced repetition, after reconciling them.

    ``traced`` holds the traced repetitions (``workloads.Repetition``).
    Without ``server_pid`` the workload ran in the benchmark process, and
    root spans of any other process are cell workers, whose time is
    subtracted from the executor's parent-side time.  With a service, each
    job's (submitted, started, finished) wall clock splits the round trip:
    service-process spans inside a job's run and every job-process span
    are subtracted from the job run time, the rest of the service
    process's spans from the HTTP time.

    Raises :class:`ReconcileError` when a layer's self time is negative
    beyond the tolerance, when the unattributed share of the wall exceeds
    it, when the simulation spans of all processes do not count exactly
    the cells and references the traced passes simulated (spans of a cell
    worker or job process were lost), or when the job processes' spans
    cover less than ``1 - RECONCILE_TOLERANCE`` of the cold jobs' run time.
    """
    passes = [p for rep in traced for p in rep.passes]
    jobs = [p.job for p in passes if p.job is not None]
    cold_jobs = [rep.cold.job for rep in traced if rep.cold.job is not None]
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    wall = 0.0
    remote_roots = 0.0
    inner_server = 0.0
    outer_server = 0.0
    for record in records:
        layer = record["layer"]
        for key, value in record.get("n", {}).items():
            counts[f"{layer}.{key}"] += value
        pid = record["pid"]
        if layer == PASS_LAYER:
            wall += record["dur"]
            self_s[PASS_LAYER] += record["self"]
            continue
        self_s[layer] += record["self"]
        if not record["root"] or pid == bench_pid:
            continue
        if pid != server_pid:
            remote_roots += record["dur"]
        elif any(started <= record["w0"] <= finished for _, started, finished in jobs):
            inner_server += record["dur"]
        else:
            outer_server += record["dur"]

    queue_wait = sum(started - submitted for submitted, started, _ in jobs)
    job_runs = sum(finished - started for _, started, finished in jobs)
    if server_pid is None:
        self_s["resilience.executor"] -= remote_roots
        http = job_run = 0.0
        unattributed = self_s.pop(PASS_LAYER, 0.0)
    else:
        # The benchmark process's pass spans hold nothing but the client round trips.
        self_s.pop(PASS_LAYER, None)
        job_run = job_runs - inner_server - remote_roots
        http = wall - queue_wait - job_runs - outer_server
        unattributed = 0.0

    timed = {
        "trace.generate_s": self_s["trace.generate"],
        "core.simulate_s": self_s["core.simulate"],
        "interconnect.price_s": self_s["interconnect.price"],
        "characterization.load_s": self_s["characterization.load"],
        "runner.cache_key_s": self_s["runner.cache_key"],
        "runner.cache_get_s": self_s["runner.cache_get"],
        "runner.cache_put_s": self_s["runner.cache_put"],
        "runner.sweep_self_s": self_s["runner.sweep"],
        "resilience.journal_append_s": self_s["resilience.journal_append"],
        "resilience.executor_overhead_s": self_s["resilience.executor"],
        "service.http_s": http,
        "service.queue_wait_s": queue_wait,
        "service.job_run_s": job_run,
    }
    total = sum(timed.values()) + unattributed
    problems = [
        f"{name} = {value:.6f} s"
        for name, value in timed.items()
        if value < -RECONCILE_TOLERANCE * wall
    ]
    if wall <= 0:
        problems.append("no traced pass was recorded")
    elif abs(unattributed) > RECONCILE_TOLERANCE * wall:
        problems.append(
            f"{unattributed:.6f} s of {wall:.6f} s traced wall is in no layer"
        )
    if abs(total - wall) > RECONCILE_TOLERANCE * max(wall, 1e-9):
        problems.append(f"layers sum to {total:.6f} s, traced wall {wall:.6f} s")
    simulated_cells = sum(p.simulated for p in passes)
    simulated_refs = sum(p.simulated_refs for p in passes)
    for what, spanned, simulated in (
        ("cells", counts["core.simulate.cells"], simulated_cells),
        ("references", counts["core.simulate.refs"], simulated_refs),
    ):
        if spanned != simulated:
            problems.append(
                f"simulation spans count {spanned:.0f} {what}, the traced passes "
                f"simulated {simulated}"
            )
    if server_pid is not None:
        cold_run = sum(finished - started for _, started, finished in cold_jobs)
        if remote_roots < (1.0 - RECONCILE_TOLERANCE) * cold_run:
            problems.append(
                f"job-process spans cover {remote_roots:.6f} s of {cold_run:.6f} s "
                "cold job run time"
            )
    if problems:
        raise ReconcileError("per-layer times do not reconcile: " + "; ".join(problems))

    reps = float(len(traced))
    generations = counts["trace.generate.generations"]
    cells = counts["core.simulate.cells"]
    refs = counts["core.simulate.refs"]
    simulate_s = self_s["core.simulate"]
    metrics = {name: value / reps for name, value in timed.items()}
    metrics.update(
        {
            "trace.generations": generations / reps,
            "trace.refs_generated": counts["trace.generate.refs"] / reps,
            "trace.reuse_ratio": cells / generations if generations else 0.0,
            "core.refs_simulated": refs / reps,
            "core.table_cells": counts["core.simulate.table"] / reps,
            "core.reference_cells": counts["core.simulate.reference"] / reps,
            "core.kernel_refs_per_s": refs / simulate_s if simulate_s > 0 else 0.0,
            "interconnect.price_calls": counts["interconnect.price.calls"] / reps,
            "runner.cache_hits": counts["runner.cache_get.hit"] / reps,
            "runner.cache_misses": counts["runner.cache_get.miss"] / reps,
            "runner.cache_bytes_written": counts["runner.cache_put.bytes"] / reps,
            "resilience.journal_appends": (
                counts["resilience.journal_append.appends"] / reps
            ),
            "resilience.cells_spawned": counts["resilience.executor.spawned"] / reps,
            "resilience.retries": counts["runner.sweep.retries"] / reps,
            "resilience.cells_failed": counts["runner.sweep.failed"] / reps,
            "service.journal_records": counts["service.journal.records"] / reps,
            "service.requests": sum(p.requests for p in passes) / reps,
            "service.requests_failed": sum(p.requests_failed for p in passes) / reps,
            "obs.traced_wall_s": wall / reps,
            "obs.unattributed_s": unattributed / reps,
        }
    )
    return metrics
