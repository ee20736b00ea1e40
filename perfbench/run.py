"""Benchmark entry point: one workload, one seed, one fresh process per run.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/repro`` from
there).  A run

1. stamps its output with a host and build fingerprint;
2. runs the workload's corpus pass at the default seed and checks every
   cell's counter signature and ``cpr_rel_err`` against ``corpus.json``;
3. repeats cold/warm/reprice passes on the seeded grid until ``--seconds``
   have passed, checking each repetition; before each one it times its
   calibration kernel and one fresh-interpreter set-up launch, so that
   both sample the host over the whole run (``setup_s`` is the median
   launch, of at least five);
4. prints every metric by name with its unit and, as the last line, one
   JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

Host-time metrics are the *best* sample of the run (contention only ever
slows a sample), except ``setup_s``, the median of its launches, all
scaled by the run's host speed: the best time of a fixed calibration
kernel timed before every repetition, over its time on the reference
host, capped at :data:`MAX_SPEED_CORRECTION` either way.
``steadiness.json`` holds the evidence for these choices.
``reprice_s`` is printed but not gated (its disk-bound spread is too wide).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones instead (see ``layers.py``).

The exit status is non-zero on any correctness failure: a corpus
mismatch, a warm or reprice pass that simulated, a failed cell or request.
``--freeze-corpus`` writes the corpus pass's cells into ``corpus.json``
for the workload instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = HERE / "corpus.json"
#: Where runs keep their caches, journals and spans (deleted on exit).
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("paper-grid", "holdouts-finite", "service-roundtrip")
#: Fresh-interpreter launches per run at the least (one per repetition);
#: ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Repetitions per run (of each kind, in a traced run) at the least.
MIN_REPETITIONS = 3
#: Runs in a fresh interpreter with ``src`` and this directory on the path;
#: times ``import repro`` and prints once the workload is ready to submit.
SETUP_PROBE = (
    "import time; start = time.perf_counter(); import repro; "
    "import_s = time.perf_counter() - start; "
    "import sys, workloads; workloads.ready(sys.argv[1], sys.argv[2], import_s)"
)

#: Best time of :func:`calibrate` on the reference host; normalised
#: metrics are scaled to a host that runs the calibration this fast.
CALIBRATION_REFERENCE_S = 0.0136
#: Largest host-speed correction applied, either way.  The kernel is a
#: proxy: while the measured speed stayed within 0.86-1.29 it tracked the
#: workload, but in one recorded episode it read 1.7-2.0x slow for minutes
#: while the workload slowed about 1.1x, and the uncapped correction made
#: those runs look up to 1.9x faster than the rest.
MAX_SPEED_CORRECTION = 1.3


def _calibration_kernel(n: int = 80000) -> dict:
    table: dict = {}
    for i in range(n):
        key = (i * 2654435761) & 1023
        table[key] = (table.get(key, 0) + i) & 0xFF
    return table


def calibrate(samples: int = 5) -> float:
    """Best time of a fixed pure-Python kernel: this moment's host speed."""
    best = float("inf")
    for _ in range(samples):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


#: The gated end-to-end metrics (``reprice_s`` is measured and printed
#: but its run-to-run spread exceeds any allowed bound on this host).
END_TO_END_UNITS = {
    "setup_s": "s",
    "refs_per_s": "1/s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def source_digest() -> str:
    """sha256 over every file under ``src`` (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(args) -> dict:
    import repro
    from workloads import SCALE_DENOMINATOR

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git_sha = completed.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repro": repro.__version__,
        "git_sha": git_sha,
        "src_sha256": source_digest(),
        "scale": f"1/{SCALE_DENOMINATOR}",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(name: str, directory: Path) -> Tuple[float, float]:
    """(launch-to-ready seconds, import seconds) of one fresh interpreter."""
    from serving import subprocess_env

    directory.mkdir(parents=True)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, name, str(directory)],
        env=subprocess_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    process.stdout.read()
    process.stdout.close()
    if process.wait() != 0 or not line:
        raise RuntimeError(f"set-up probe for {name} failed")
    return elapsed, json.loads(line)["import_s"]


def peak_rss_mb() -> float:
    """High-water RSS of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """Everything one run measures and checks."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.trace_dir = work / "spans"
        self.trace_dir.mkdir()
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup: List[float] = []
        self.imports: List[float] = []
        self.plain = []
        self.traced = []
        self.calibration: List[float] = []

    def account(self, rep, cells: int) -> None:
        from workloads import check_repetition

        self.attempted += sum(p.cells + p.requests for p in rep.passes)
        failed, problems = check_repetition(rep, cells)
        self.failed += failed
        self.problems += problems

    def check_corpus(self, observed: dict) -> None:
        """Check the corpus pass's cells, or freeze them with ``--freeze-corpus``."""
        from workloads import check_against_corpus

        name = self.args.workload
        corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
        if self.args.freeze_corpus:
            corpus[name] = observed
            CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
            cells = len(observed["signatures"])
            print(f"froze {cells} {name} cells into {CORPUS.name}")
            return
        failed, problems = check_against_corpus(name, observed, corpus)
        frozen = corpus.get(name, {}).get("signatures", {})
        self.attempted += len(set(frozen) | set(observed["signatures"]))
        self.failed += failed
        self.problems += problems

    def repeat(self, one_rep, set_up) -> None:
        """Call ``one_rep(index, traced)`` until the time budget is spent.

        Before each repetition the run times its calibration kernel and
        calls ``set_up(index)`` for one set-up launch, so that one episode
        of host contention cannot hit every launch.
        """
        deadline = time.perf_counter() + self.args.seconds
        index = 0
        while True:
            traced = bool(self.args.trace) and index % 2 == 1
            self.calibration.append(calibrate())
            set_up(index)
            rep = one_rep(index, traced)
            (self.traced if traced else self.plain).append(rep)
            index += 1
            enough = (
                index >= SETUP_LAUNCHES
                and len(self.plain) >= MIN_REPETITIONS
                and (not self.args.trace or len(self.traced) >= MIN_REPETITIONS)
            )
            if enough and time.perf_counter() >= deadline:
                return

    # -- workloads ------------------------------------------------------------

    def run_runner(self) -> Dict[str, float]:
        import layers
        from workloads import (
            DEFAULT_SEED,
            RunnerWorkload,
            corpus_summary,
            reprice_characterizations,
        )

        name = self.args.workload
        models = reprice_characterizations(self.work / "models")
        corpus_workload = RunnerWorkload(name, DEFAULT_SEED, models)
        corpus_rep = corpus_workload.repetition(self.work / "corpus")
        self.account(corpus_rep, len(corpus_workload.specs))
        self.check_corpus(corpus_summary(name, corpus_rep.cold))

        workload = RunnerWorkload(name, self.args.seed, models)

        def set_up(index: int) -> None:
            ready, imported = setup_probe(name, self.work / f"setup{index}")
            self.setup.append(ready)
            self.imports.append(imported)

        def one_rep(index: int, traced: bool):
            directory = self.work / f"rep{index}"
            if traced:
                restore = layers.install(self.trace_dir)
                try:
                    wrap = lambda fn: restore.recorder.span(layers.PASS_LAYER, fn)
                    rep = workload.repetition(directory, wrap)
                finally:
                    restore()
            else:
                rep = workload.repetition(directory)
            self.account(rep, len(workload.specs))
            return rep

        self.repeat(one_rep, set_up)
        if not self.args.trace:
            return {}
        records = layers.load(self.trace_dir, self.pass_windows())
        return layers.per_layer(records, self.traced, bench_pid=os.getpid())

    def run_service(self) -> Dict[str, float]:
        import layers
        from repro.service import ServiceClient
        from serving import Server, service_repetition
        from workloads import (
            DEFAULT_SEED,
            corpus_summary,
            derive_seed,
            reprice_characterizations,
        )

        name = self.args.workload
        models = reprice_characterizations(self.work / "models")
        servers: List[Server] = []
        try:
            plain_server = Server(self.work / "plain")
            servers.append(plain_server)
            plain_server.wait_ready()
            plain = ServiceClient(plain_server.url, client="perfbench", timeout=120)
            corpus_rep = service_repetition(
                plain, derive_seed(name, DEFAULT_SEED, "corpus"), models
            )
            self.account(corpus_rep, corpus_rep.cold.cells)
            self.check_corpus(corpus_summary(name, corpus_rep.cold))

            traced_client = None
            recorder = None
            if self.args.trace:
                traced_server = Server(self.work / "traced", self.trace_dir)
                servers.append(traced_server)
                traced_server.wait_ready()
                traced_client = ServiceClient(
                    traced_server.url, client="perfbench", timeout=120
                )
                recorder = layers.Recorder(self.trace_dir)

            def set_up(index: int) -> None:
                server = Server(self.work / f"setup{index}")
                try:
                    self.setup.append(server.wait_ready())
                finally:
                    server.stop()
                if self.args.trace:
                    _, imported = setup_probe(name, self.work / f"probe{index}")
                    self.imports.append(imported)

            def one_rep(index: int, traced: bool):
                seed = derive_seed(name, self.args.seed, index)
                if traced:
                    wrap = lambda fn: recorder.span(layers.PASS_LAYER, fn)
                    rep = service_repetition(traced_client, seed, models, wrap)
                else:
                    rep = service_repetition(plain, seed, models)
                self.account(rep, rep.cold.cells)
                return rep

            self.repeat(one_rep, set_up)
        finally:
            for server in servers:
                server.stop()
        if not self.args.trace:
            return {}
        recorder.close()
        metrics = layers.per_layer(
            layers.load(self.trace_dir, self.pass_windows()),
            self.traced,
            bench_pid=os.getpid(),
            server_pid=servers[-1].process.pid,
        )
        metrics["service.ready_s"] = statistics.median(self.setup)
        return metrics

    def pass_windows(self) -> List[Tuple[float, float]]:
        windows = []
        path = self.trace_dir / f"{os.getpid()}.jsonl"
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["layer"] == "bench.pass":
                windows.append((record["w0"], record["w0"] + record["dur"]))
        return windows

    # -- results --------------------------------------------------------------

    def samples(self) -> Dict[str, List[float]]:
        """Every untraced sample of each host-time metric."""
        return {
            "setup_s": self.setup,
            "refs_per_s": [
                r.cold.simulated_refs / r.cold.seconds for r in self.plain
            ],
            "warm_s": [p.seconds for r in self.plain for p in r.warm],
            "reprice_s": [p.seconds for r in self.plain for p in r.reprice],
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze-corpus", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    print("fingerprint " + json.dumps(fingerprint(args), sort_keys=True), flush=True)
    work = SCRATCH / str(os.getpid())
    # Keep every temporary file of this run and its children in the checkout.
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        run = Run(args, work)
        if args.workload == "service-roundtrip":
            layer_metrics = run.run_service()
        else:
            layer_metrics = run.run_runner()
    finally:
        # Files are only deleted here, after the measurement: on a disk
        # mounted with online discard, deleting mid-run makes the next
        # fsync pay for the discards.  The sync makes this run pay for
        # its own before the next one starts.
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass
        os.sync()

    if args.trace:
        best_plain = min(rep.seconds for rep in run.plain)
        best_traced = min(rep.seconds for rep in run.traced)
        layer_metrics["obs.tracing_overhead_ratio"] = best_traced / best_plain - 1.0
        layer_metrics["setup.import_s"] = statistics.median(run.imports)
        layer_metrics.setdefault("service.ready_s", 0.0)
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(layer_metrics.items())
        }
    else:
        samples = run.samples()
        best = {
            name: max(values) if name == "refs_per_s" else min(values)
            for name, values in samples.items()
        }
        # The fastest launch is one sub-second sample; their median is
        # the steadier estimate (see steadiness.json).
        reported = dict(best, setup_s=statistics.median(samples["setup_s"]))
        # Host speed of this run relative to the reference host; contention
        # slows every instruction, so the calibration kernel slows with the
        # workload and the ratio cancels most of it (see steadiness.json).
        measured = min(run.calibration) / CALIBRATION_REFERENCE_S
        speed = min(max(measured, 1.0 / MAX_SPEED_CORRECTION), MAX_SPEED_CORRECTION)
        normalized = {
            name: value * speed if name == "refs_per_s" else value / speed
            for name, value in reported.items()
        }
        estimates = {
            "best_of_r": best,
            "median_of_r": {
                name: statistics.median(values) for name, values in samples.items()
            },
            "normalized": normalized,
            "host_speed": measured,
        }
        print("estimates " + json.dumps(estimates, sort_keys=True))
        print(
            f"reprice_s = {normalized['reprice_s']:.6g} s "
            "(not gated: the disk's write-back latency is not steady)"
        )
        values = {**normalized, "peak_rss_mb": peak_rss_mb()}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    cpr = [rep.cold.cycles for rep in run.plain if rep.cold.cycles]
    if args.workload != "holdouts-finite" and cpr:
        from workloads import cpr_rel_err

        print(f"cpr_rel_err = {cpr_rel_err(cpr[0]):.6f} ratio (seeded grid, not gated)")
    print(f"repetitions = {len(run.plain)} untraced, {len(run.traced)} traced")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
