"""Command-line interface: run the paper's experiments from a shell.

Subcommands::

    repro-coherence compare  [--schemes ...] [--scale N] [--bus ...]
    repro-coherence sweep    [--schemes ...] [--traces ...] [--block-sizes ...]
                             [--geometries ...] [--characterization ...]
    repro-coherence models   [NAME|PATH ...]
    repro-coherence finite   [--schemes ...] [--geometries ...] [--scale N]
    repro-coherence profile  [--protocols ...] [--traces ...] [--geometry G]
    repro-coherence table4   [--scale N]
    repro-coherence table5   [--scale N]
    repro-coherence figure1  [--scale N]
    repro-coherence spinlock [--scale N]
    repro-coherence storage  [--caches 4 16 64 256 1024]
    repro-coherence trace-stats [--scale N]
    repro-coherence classify TRACE [--scale N]
    repro-coherence validate SCHEME [--scale N]
    repro-coherence modelcheck SCHEME [--caches 2] [--blocks 1]
    repro-coherence timed SCHEME [--scale N] [--q 1]
    repro-coherence export-trace NAME FILE [--scale N] [--format text|binary]
    repro-coherence status   [--status-file FILE | --cache-dir DIR] [--watch S]
    repro-coherence serve    --cache-dir DIR [--host H] [--port P] [--workers N]

``--scale`` is the denominator applied to the paper's trace lengths
(``--scale 16`` simulates 1/16 of ~3.2M references per trace).  ``--jobs``
fans simulations across worker processes and ``--cache-dir`` enables the
on-disk result cache; both apply to ``sweep`` and to the table/figure
commands, always with bit-identical results to the serial path.  Sweep
tables go to stdout; progress and throughput/cache metrics go to stderr.

Hardware models are data (see docs/characterization.md): ``models`` lists
the bundled characterizations (or previews user files) and ``sweep
--characterization NAME|PATH ...`` prices the grid under each one — k
characterizations cost one simulation per configuration, the rest are
re-priced from the same counters.

Resilience (see docs/robustness.md): ``sweep`` accepts ``--retries N``
(per-cell retry budget with deterministic backoff), ``--cell-timeout S``
(SIGKILL overruns), ``--keep-going``/``--max-failures N`` (record failures
and finish the grid) and ``--resume`` (requires ``--cache-dir``).  Any
rerun with the same ``--cache-dir`` serves the cells the cache holds and
re-runs only failed or missing ones; ``--resume`` adds a log of what the
sweep's journal already covers and a warning for each journaled success
that is missing from the cache.

Exit codes: 0 success; 1 runtime failure (a cell failed fail-fast, a
model-check violation, an unwritable output); 2 usage, spec or
trace-format errors; 3 the sweep finished but some cells failed under
``--keep-going``; 130 interrupted (completed cells are already flushed to
the cache and journal).

Observability (see docs/observability.md): ``--log-level``/``-v`` raise
logging verbosity and ``--log-json`` switches to JSON-lines logs;
``compare``/``sweep``/``finite`` accept ``--emit-trace FILE`` (stream every
reference to a Chrome-trace/Perfetto file; forces inline, uncached
execution), ``--metrics-json FILE`` (dump the sweep's metrics registry),
``--metrics-openmetrics FILE`` (the same registry as OpenMetrics /
Prometheus text), ``--emit-spans FILE`` (record the sweep's span tree —
including worker-subprocess spans — as a Perfetto-loadable trace),
``--heartbeat-seconds S`` (heartbeat/status cadence; 0 disables; env
``REPRO_HEARTBEAT_SECONDS``) and ``--status-file FILE`` (where to publish
the live status snapshot; defaults next to the journal with
``--cache-dir``); ``status`` renders a running sweep's snapshot from a
different process; ``profile`` runs its cells as a traced sweep (never
from the cache) and prints each cell's stage spans: ``trace.generate``,
``core.simulate``, ``report`` and the rest of the cell's wall time.

Serving (see docs/service.md): ``serve`` runs the sweep runner as a
long-lived HTTP job API rooted at ``--cache-dir`` — ``POST /sweeps``
through ``GET /metrics``, with per-client rate limits, bounded-queue
backpressure and graceful drain on SIGTERM.  The global ``--jobs`` flag
caps the per-sweep worker count a request may ask for.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .analysis import (
    directory_storage_bits,
    figure1,
    figure2,
    finite_sensitivity,
    spin_lock_impact,
    table4,
    table5,
)
from .interconnect import nonpipelined_bus, pipelined_bus
from .obs import (
    ChromeTraceSink,
    MetricsRegistry,
    SpanRecorder,
    get_logger,
    read_status,
    render_status,
    setup_logging,
    stage_seconds,
)
from .protocols import (
    PAPER_CORE_SCHEMES,
    PROTOCOLS,
    protocol_names,
    unknown_protocol_message,
)
from .resilience import (
    CellFailure,
    FaultPlan,
    FaultyCache,
    SweepInterrupted,
    SweepJournal,
)
from .runner import (
    ResultCache,
    RunSpec,
    SweepReport,
    normalize_geometry,
    run_sweep,
    sweep_grid,
)
from .runner.sweep import STATUS_SUFFIX
from .trace import SharingModel, collect_stats, standard_trace, standard_trace_names
from .trace.atum import write_binary, write_text
from .trace.stats import format_table3

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """A bad flag, spec or input file: one line on stderr, exit code 2."""


_DEFAULT_SCALE_DENOMINATOR = 16.0

#: Default geometry ladder for the ``finite`` sensitivity table:
#: three finite sizes bracketing the working sets, plus the paper's
#: infinite-cache baseline.
_DEFAULT_FINITE_GEOMETRIES = ("16x2", "64x2", "256x2", "inf")


def _scheme_arg(name: str) -> str:
    """argparse type for scheme names: lowercase, with a did-you-mean error."""
    candidate = name.lower()
    if candidate not in PROTOCOLS:
        raise argparse.ArgumentTypeError(unknown_protocol_message(name))
    return candidate


def _geometry_arg(text: str) -> Optional[str]:
    """argparse type for geometry specs: "SETSxWAYS" or "inf" (``None``)."""
    try:
        return normalize_geometry(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coherence",
        description=(
            "Trace-driven evaluation of directory schemes for cache "
            "coherence (ISCA 1988 reproduction)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=_DEFAULT_SCALE_DENOMINATOR,
        metavar="N",
        help="simulate 1/N of the paper's trace lengths (default 16)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulate sweep cells across N worker processes (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="serve repeated simulations from an on-disk result cache",
    )
    parser.add_argument(
        "--backend",
        choices=["reference", "fast"],
        default="reference",
        help=(
            "simulation backend: the per-reference loop, or the table-driven "
            "fast backend (bit-identical counters)"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="logging verbosity (default: warning)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity (-v: info, -vv: debug)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--emit-trace",
            default=None,
            metavar="FILE",
            help=(
                "stream every reference to a Chrome-trace/Perfetto JSON file "
                "(forces inline, uncached execution)"
            ),
        )
        command.add_argument(
            "--metrics-json",
            default=None,
            metavar="FILE",
            help="write the run's metrics registry as JSON",
        )
        command.add_argument(
            "--metrics-openmetrics",
            default=None,
            metavar="FILE",
            help=(
                "write the run's metrics registry as OpenMetrics/Prometheus "
                "text exposition"
            ),
        )
        command.add_argument(
            "--emit-spans",
            default=None,
            metavar="FILE",
            help=(
                "record the sweep's span tree (sweep/cell/attempt/stage plus "
                "cache_hit/reprice/retry/timeout/fault markers, including "
                "worker-subprocess spans) as a Chrome-trace/Perfetto JSON file"
            ),
        )
        command.add_argument(
            "--heartbeat-seconds",
            type=float,
            default=None,
            metavar="S",
            help=(
                "seconds between heartbeat log lines and status snapshots "
                "(default: $REPRO_HEARTBEAT_SECONDS or 10; 0 disables)"
            ),
        )
        command.add_argument(
            "--status-file",
            default=None,
            metavar="FILE",
            help=(
                "publish an atomic live-status snapshot here (default: "
                "next to the journal when --cache-dir is set); read it with "
                "'repro-coherence status'"
            ),
        )

    compare = sub.add_parser("compare", help="bus cycles per reference per scheme")
    compare.add_argument(
        "--schemes",
        nargs="+",
        default=list(PAPER_CORE_SCHEMES),
        type=_scheme_arg,
        metavar="SCHEME",
        help=f"schemes to compare (choices: {', '.join(protocol_names())})",
    )
    add_obs_flags(compare)

    sweep = sub.add_parser(
        "sweep", help="parallel sweep over a protocol x trace x config grid"
    )
    sweep.add_argument(
        "--schemes",
        nargs="+",
        default=list(PAPER_CORE_SCHEMES),
        type=_scheme_arg,
        metavar="SCHEME",
        help=f"schemes to sweep (choices: {', '.join(protocol_names())})",
    )
    sweep.add_argument(
        "--traces",
        nargs="+",
        default=list(standard_trace_names()),
        choices=list(standard_trace_names()),
        metavar="TRACE",
    )
    sweep.add_argument(
        "--block-sizes",
        nargs="+",
        type=int,
        default=[16],
        metavar="BYTES",
        help="block sizes to sweep (default: the paper's 16)",
    )
    sweep.add_argument(
        "--geometries",
        nargs="+",
        type=_geometry_arg,
        default=[None],
        metavar="SETSxWAYS",
        help=(
            "cache geometries to sweep: SETSxWAYS specs like 64x4, or 'inf' "
            "for the paper's infinite caches (default: inf)"
        ),
    )
    sweep.add_argument(
        "--sharing",
        nargs="+",
        choices=[model.value for model in SharingModel],
        default=[SharingModel.PROCESS.value],
        help="sharing models to sweep (default: process)",
    )
    sweep.add_argument(
        "--characterization",
        nargs="+",
        default=[None],
        metavar="NAME|PATH",
        help=(
            "hardware characterizations to price the grid under: bundled "
            "names (pipelined, non-pipelined) or TOML/CSV files; k "
            "characterizations still cost one simulation per cell (see "
            "'models' and docs/characterization.md)"
        ),
    )
    sweep.add_argument(
        "--n-caches", type=int, default=4, help="caches per system (default 4)"
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra attempts per failed cell, with exponential backoff and "
            "deterministic jitter (default 0)"
        ),
    )
    sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget; overruns are killed and count as "
            "retryable timeout failures"
        ),
    )
    sweep.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "record failed cells and finish the rest of the grid instead of "
            "aborting (exit code 3 when any cell failed)"
        ),
    )
    sweep.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="with --keep-going, abort once more than N cells have failed",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "report the sweep journal's coverage before rerunning (requires "
            "--cache-dir): logs the journaled successes and failures and "
            "warns about journaled successes missing from the cache; any "
            "rerun with the same --cache-dir serves cached cells and re-runs "
            "only failed or missing ones"
        ),
    )
    # Deliberately undocumented: deterministic fault injection for the
    # resilience test suite and CI soak runs (docs/robustness.md).
    sweep.add_argument("--fault-plan", default=None, help=argparse.SUPPRESS)
    add_obs_flags(sweep)

    finite = sub.add_parser(
        "finite",
        help="cycles/ref vs cache size: finite-geometry sensitivity table",
    )
    finite.add_argument(
        "--schemes",
        nargs="+",
        default=list(PAPER_CORE_SCHEMES),
        type=_scheme_arg,
        metavar="SCHEME",
        help=f"schemes to tabulate (choices: {', '.join(protocol_names())})",
    )
    finite.add_argument(
        "--geometries",
        nargs="+",
        type=_geometry_arg,
        default=[_geometry_arg(g) for g in _DEFAULT_FINITE_GEOMETRIES],
        metavar="SETSxWAYS",
        help=(
            "cache geometries to tabulate (default: "
            f"{' '.join(_DEFAULT_FINITE_GEOMETRIES)})"
        ),
    )
    finite.add_argument(
        "--n-caches", type=int, default=4, help="caches per system (default 4)"
    )
    add_obs_flags(finite)

    profile = sub.add_parser(
        "profile",
        help="per-stage wall-time breakdown of each cell, from its spans",
    )
    profile.add_argument(
        "--protocols",
        "--schemes",
        dest="protocols",
        nargs="+",
        default=["dir0b"],
        type=_scheme_arg,
        metavar="SCHEME",
        help=f"schemes to profile (choices: {', '.join(protocol_names())})",
    )
    profile.add_argument(
        "--traces",
        nargs="+",
        default=["POPS"],
        choices=list(standard_trace_names()),
        metavar="TRACE",
    )
    profile.add_argument(
        "--geometry",
        type=_geometry_arg,
        default=None,
        metavar="SETSxWAYS",
        help="finite cache geometry (default: the paper's infinite caches)",
    )
    profile.add_argument(
        "--n-caches", type=int, default=4, help="caches per system (default 4)"
    )
    profile.add_argument(
        "--metrics-json",
        default=None,
        metavar="FILE",
        help="write the profiling sweep's metrics registry as JSON",
    )

    models = sub.add_parser(
        "models",
        help="list hardware characterizations and preview their Table 2 column",
    )
    models.add_argument(
        "characterizations",
        nargs="*",
        metavar="NAME|PATH",
        help=(
            "bundled names or characterization files to preview "
            "(default: every bundled model)"
        ),
    )

    sub.add_parser("table4", help="event frequencies (paper Table 4)")
    sub.add_parser("table5", help="bus-cycle breakdown (paper Table 5)")
    sub.add_parser("figure1", help="invalidation fan-out histogram (Figure 1)")
    sub.add_parser("spinlock", help="lock-test exclusion experiment (Sec 5.2)")
    sub.add_parser("trace-stats", help="trace characteristics (paper Table 3)")

    storage = sub.add_parser("storage", help="directory storage scaling (Sec 6)")
    storage.add_argument(
        "--caches", nargs="+", type=int, default=[4, 16, 64, 256, 1024]
    )

    classify = sub.add_parser(
        "classify", help="sharing-pattern composition of a trace"
    )
    classify.add_argument("trace", choices=list(standard_trace_names()))

    validate = sub.add_parser(
        "validate", help="value-level coherence validation of a scheme"
    )
    validate.add_argument("scheme", type=_scheme_arg)

    modelcheck = sub.add_parser(
        "modelcheck",
        help="verify a scheme over every state reachable by reads, writes "
        "and evictions on a small config",
    )
    modelcheck.add_argument("scheme", type=_scheme_arg)
    modelcheck.add_argument("--caches", type=int, default=2)
    modelcheck.add_argument("--blocks", type=int, default=1)

    timed = sub.add_parser(
        "timed", help="timing-accurate run with bus arbitration"
    )
    timed.add_argument("scheme", type=_scheme_arg)
    timed.add_argument("--q", type=int, default=1, help="fixed overhead cycles")

    export = sub.add_parser(
        "export-trace", help="write a synthetic trace to an ATUM-style file"
    )
    export.add_argument("trace", choices=list(standard_trace_names()))
    export.add_argument("path")
    export.add_argument("--format", choices=["text", "binary"], default="text")

    status_cmd = sub.add_parser(
        "status",
        help=(
            "live view of a (possibly running) sweep, read from its status "
            "snapshot and journal — works from a different process"
        ),
    )
    status_cmd.add_argument(
        "--status-file",
        default=None,
        metavar="FILE",
        help="the snapshot to read (as passed to sweep --status-file)",
    )
    status_cmd.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help=(
            "find the most recently updated *.status.json in this cache "
            "directory (where sweeps with --cache-dir publish theirs)"
        ),
    )
    status_cmd.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render every SECONDS until the sweep leaves 'running'",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the sweep runner as a long-lived HTTP job API (POST /sweeps "
            "... GET /metrics) rooted at --cache-dir"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent sweep jobs (each runs in its own process)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="queued jobs beyond the running ones before 503s (default 16)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="R",
        help="per-client submissions per second (default: unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=10,
        metavar="N",
        help="per-client burst size for --rate-limit (default 10)",
    )
    serve.add_argument(
        "--job-ttl",
        type=float,
        default=3600.0,
        metavar="S",
        help="seconds to keep finished jobs and their artifacts (default 3600)",
    )
    serve.add_argument(
        "--max-cells",
        type=int,
        default=4096,
        metavar="N",
        help="largest sweep grid a single request may expand to",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds to wait for running sweeps on SIGTERM (default 30)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "where the crash-safe service journal lives (default: "
            "<cache-dir>/state); restarting with the same directory "
            "recovers interrupted jobs without re-simulating finished cells"
        ),
    )
    serve.add_argument(
        "--no-recover",
        action="store_true",
        help="skip journal replay on startup (start with an empty job table)",
    )
    # Deterministic service-seam fault injection for the chaos harness.
    serve.add_argument("--fault-plan", default=None, help=argparse.SUPPRESS)
    return parser


def _scale(args: argparse.Namespace) -> float:
    if not 0 < args.scale < math.inf:
        raise UsageError("--scale must be positive and finite")
    return 1.0 / args.scale


def _jobs(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    return args.jobs


def _comparison(args: argparse.Namespace, schemes=PAPER_CORE_SCHEMES):
    """Run the standard grid through the sweep runner (jobs/cache honoured)."""
    try:
        specs = sweep_grid(tuple(schemes), scale=_scale(args), backend=args.backend)
    except ValueError as error:
        raise UsageError(f"{args.command}: {error}") from error
    return _run_grid(args, specs).comparison()


def _cmd_compare(args: argparse.Namespace) -> None:
    comparison = _comparison(args, args.schemes)
    pipe, nonpipe = pipelined_bus(), nonpipelined_bus()
    bars = figure2(comparison)
    print(bars.render())
    print()
    for scheme in args.schemes:
        print(
            f"{scheme:<10} pipelined {comparison.average_cycles(scheme, pipe):.4f}"
            f"  non-pipelined {comparison.average_cycles(scheme, nonpipe):.4f}"
            " cycles/ref"
        )


def _cmd_table4(args: argparse.Namespace) -> None:
    print(table4(_comparison(args)).render())


def _cmd_table5(args: argparse.Namespace) -> None:
    print(table5(_comparison(args)).render())


def _cmd_figure1(args: argparse.Namespace) -> None:
    print(figure1(_comparison(args, ("dir0b",))).render())


def _run_grid(args: argparse.Namespace, specs: List[RunSpec]) -> SweepReport:
    """Run a spec grid with the CLI's jobs/cache/probe/metrics plumbing.

    Commands that expose the resilience flags (``sweep``) get them wired
    through; everything else falls back to the historic fail-fast
    defaults via ``getattr``.
    """
    logger = get_logger("cli")
    registry = MetricsRegistry()
    emit_trace = getattr(args, "emit_trace", None)
    emit_spans = getattr(args, "emit_spans", None)
    telemetry = SpanRecorder() if emit_spans else None
    heartbeat_seconds = getattr(args, "heartbeat_seconds", None)
    if heartbeat_seconds is not None and not 0 <= heartbeat_seconds < math.inf:
        raise UsageError("--heartbeat-seconds must be finite and >= 0 (0 disables)")
    status_file = getattr(args, "status_file", None)

    retries = getattr(args, "retries", 0)
    if retries < 0:
        raise UsageError("--retries must be >= 0")
    cell_timeout = getattr(args, "cell_timeout", None)
    if cell_timeout is not None and not 0 < cell_timeout < math.inf:
        raise UsageError("--cell-timeout must be positive and finite")
    max_failures = getattr(args, "max_failures", None)
    if max_failures is not None and max_failures < 0:
        raise UsageError("--max-failures must be >= 0")
    fault_plan = None
    fault_plan_path = getattr(args, "fault_plan", None)
    if fault_plan_path:
        try:
            fault_plan = FaultPlan.load(fault_plan_path)
        except ValueError as error:
            raise UsageError(str(error)) from error

    cache = None
    if args.cache_dir and emit_trace:
        # A cache hit would produce no event stream; trace runs re-simulate.
        logger.warning("--emit-trace bypasses the result cache")
    elif args.cache_dir:
        if fault_plan is not None and fault_plan.has_cache_faults:
            cache = FaultyCache(args.cache_dir, fault_plan, registry=registry)
        else:
            cache = ResultCache(args.cache_dir, registry=registry)

    journal = None
    resume = getattr(args, "resume", False)
    if cache is not None and hasattr(args, "resume"):
        journal = SweepJournal.for_sweep(
            cache.directory, [spec.cache_key() for spec in specs]
        )
    if resume and journal is None:
        raise UsageError(
            "--resume requires --cache-dir (the sweep journal lives beside "
            "the result cache)"
        )

    done = 0

    def progress(outcome) -> None:
        nonlocal done
        done += 1
        if not outcome.ok:
            source = f"FAILED: {outcome.error.kind}"
        elif outcome.cached:
            source = "cache"
        elif outcome.repriced:
            source = "repriced"
        else:
            source = f"{outcome.elapsed:.2f}s"
        geometry = outcome.spec.geometry or "inf"
        print(
            f"[{done}/{len(specs)}] {outcome.spec.protocol} "
            f"{outcome.spec.trace} b{outcome.spec.block_size} "
            f"g{geometry} ({source})",
            file=sys.stderr,
        )

    sink = None
    probe_factory = None
    if emit_trace:
        try:
            sink = ChromeTraceSink(emit_trace)
        except OSError as error:
            raise SystemExit(f"cannot write {emit_trace}: {error}")

        def probe_factory(spec: RunSpec):
            geometry = spec.geometry or "inf"
            return sink.cell(
                f"{spec.protocol}/{spec.trace} b{spec.block_size} g{geometry}"
            )

    try:
        report = run_sweep(
            specs,
            jobs=_jobs(args),
            cache=cache,
            progress=progress,
            probe_factory=probe_factory,
            registry=registry,
            retry=retries,
            cell_timeout=cell_timeout,
            keep_going=getattr(args, "keep_going", False),
            max_failures=max_failures,
            faults=fault_plan,
            journal=journal,
            resume=resume,
            telemetry=telemetry,
            heartbeat_seconds=heartbeat_seconds,
            status_path=status_file,
        )
    finally:
        if sink is not None:
            sink.close()
    if emit_trace:
        print(f"wrote Chrome trace to {emit_trace}", file=sys.stderr)
    if emit_spans and telemetry is not None and len(telemetry):
        try:
            slices = telemetry.write_chrome_trace(emit_spans)
        except OSError as error:
            raise SystemExit(f"cannot write {emit_spans}: {error}")
        print(
            f"wrote {slices} spans to {emit_spans}", file=sys.stderr
        )

    metrics_json = getattr(args, "metrics_json", None)
    if metrics_json:
        try:
            with open(metrics_json, "w", encoding="utf-8") as handle:
                json.dump(report.metrics_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            raise SystemExit(f"cannot write {metrics_json}: {error}")
        print(f"wrote metrics to {metrics_json}", file=sys.stderr)
    metrics_openmetrics = getattr(args, "metrics_openmetrics", None)
    if metrics_openmetrics:
        try:
            report.registry.write_openmetrics(metrics_openmetrics)
        except OSError as error:
            raise SystemExit(f"cannot write {metrics_openmetrics}: {error}")
        print(
            f"wrote OpenMetrics to {metrics_openmetrics}", file=sys.stderr
        )
    return report


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        specs = sweep_grid(
            tuple(args.schemes),
            traces=tuple(args.traces),
            scale=_scale(args),
            n_caches=args.n_caches,
            block_sizes=tuple(args.block_sizes),
            geometries=tuple(args.geometries),
            sharing_models=tuple(SharingModel(value) for value in args.sharing),
            backend=args.backend,
            characterizations=tuple(args.characterization),
        )
    except ValueError as error:
        raise UsageError(f"sweep: {error}") from error
    report = _run_grid(args, specs)
    print(report.cell_table())
    if any(spec.characterization for spec in specs):
        print()
        print(report.pricing_table())
    if report.failures:
        print()
        print(report.failure_table())
    else:
        try:
            comparison = report.comparison()
        except ValueError:
            pass  # grid has extra axes; the cell table is the whole story
        else:
            print()
            print(table4(comparison).render())
            print()
            print(table5(comparison).render())
    print(report.render_metrics(), file=sys.stderr)
    if report.failures:
        print(
            f"sweep: {len(report.failures)}/{report.cells} cells failed "
            f"(see failure table; {_resume_hint(args)})",
            file=sys.stderr,
        )
        return 3
    return 0


def _resume_hint(args: argparse.Namespace) -> str:
    """How to finish the cells a failed or interrupted sweep left undone.

    Finished cells survive only in the result cache (``--emit-trace``
    bypasses it), and ``--resume`` exists only on ``sweep``, so the hint
    never advises a flag that would exit 2.
    """
    if not getattr(args, "cache_dir", None) or getattr(args, "emit_trace", None):
        return "nothing was cached: rerun with --cache-dir DIR to make it resumable"
    if hasattr(args, "resume"):
        return "finished cells are cached: rerun with --resume to retry the rest"
    return "finished cells are cached: rerun with the same --cache-dir"


def _cmd_models(args: argparse.Namespace) -> None:
    from .characterization import builtin_names, load_characterization

    sources = args.characterizations or list(builtin_names())
    first = True
    for source in sources:
        characterization = load_characterization(source)  # ValueError -> exit 2
        if not first:
            print()
        first = False
        bus = characterization.bus_model()
        print(f"{characterization.name} (version {characterization.version})")
        print(f"  source: {characterization.source}")
        print(f"  content hash: {characterization.content_hash()}")
        if characterization.description:
            print(f"  {characterization.description}")
        rows = characterization.table2_rows()
        width = max(len(label) for label in rows)
        print("  Table 2 column [bus cycles]:")
        for label, cycles in rows.items():
            print(f"    {label:<{width}}  {cycles:g}")
        if characterization.has_energy:
            ops = sorted(
                characterization.energy_nj, key=lambda op: op.value
            )
            op_width = max(len(op.value) for op in ops)
            print("  energy axis [nJ/op]:")
            for op in ops:
                print(f"    {op.value:<{op_width}}  {bus.energy_of(op):g}")
        else:
            print("  energy axis: none (cycles only)")


def _cmd_finite(args: argparse.Namespace) -> None:
    try:
        specs = sweep_grid(
            tuple(args.schemes),
            scale=_scale(args),
            n_caches=args.n_caches,
            geometries=tuple(args.geometries),
            backend=args.backend,
        )
    except ValueError as error:
        raise UsageError(f"finite: {error}") from error
    report = _run_grid(args, specs)
    table = finite_sensitivity(
        [
            (outcome.spec.protocol, outcome.spec.geometry, outcome.result)
            for outcome in report.outcomes
        ]
    )
    print(table.render())
    print(report.render_metrics(), file=sys.stderr)


def _profile_table(outcome, seconds: Dict[str, float]) -> str:
    """One cell's stage table: seconds, share of the cell and ns/ref."""
    spec = outcome.spec
    refs = outcome.result.references
    total = seconds["total"]
    header = f"{'stage':<16}{'seconds':>10}{'% cell':>9}{'ns/ref':>10}"
    lines = [
        f"Cell profile: {spec.protocol} / {spec.trace} (geometry "
        f"{spec.geometry or 'inf'}, backend {spec.backend}, {refs:,} refs)",
        header,
        "-" * len(header),
    ]
    for name, value in seconds.items():
        share = 100.0 * value / total if total else 0.0
        ns = 1e9 * value / refs if refs else 0.0
        lines.append(f"{name:<16}{value:>10.4f}{share:>8.1f}%{ns:>10.0f}")
    rate = refs / total if total else 0.0
    lines.append(f"throughput: {rate:,.0f} refs/s over the whole cell")
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> None:
    # A cache hit records no stages, so profile never reads the cache.
    specs = sweep_grid(
        tuple(args.protocols),
        traces=tuple(args.traces),
        scale=_scale(args),
        n_caches=args.n_caches,
        geometries=(args.geometry,),
        backend=args.backend,
    )
    recorder = SpanRecorder()
    report = run_sweep(
        list(dict.fromkeys(specs)), jobs=_jobs(args), telemetry=recorder
    )
    cells = {span.name: span for span in recorder.spans if span.kind == "cell"}
    for index, outcome in enumerate(report.outcomes):
        if index:
            print()
        cell = cells[outcome.spec.cell_id()]
        print(_profile_table(outcome, stage_seconds(recorder.spans, cell)))
    if args.metrics_json:
        try:
            report.registry.write_json(args.metrics_json)
        except OSError as error:
            raise SystemExit(f"cannot write {args.metrics_json}: {error}")
        print(f"wrote metrics to {args.metrics_json}", file=sys.stderr)


def _cmd_spinlock(args: argparse.Namespace) -> None:
    scale = _scale(args)
    factories = {
        name: (lambda name=name: standard_trace(name, scale=scale))
        for name in standard_trace_names()
    }
    for impact in spin_lock_impact(factories).values():
        print(impact.render())


def _cmd_trace_stats(args: argparse.Namespace) -> None:
    scale = _scale(args)
    stats = [
        collect_stats(standard_trace(name, scale=scale), name=name)
        for name in standard_trace_names()
    ]
    print(format_table3(stats))


def _cmd_storage(args: argparse.Namespace) -> None:
    bits = directory_storage_bits(tuple(args.caches))
    header = f"{'Scheme':<20}" + "".join(f"{n:>8}" for n in args.caches)
    print("Directory bits per main-memory block vs number of caches")
    print(header)
    print("-" * len(header))
    for scheme, row in bits.items():
        print(f"{scheme:<20}" + "".join(f"{row[n]:>8}" for n in args.caches))


def _cmd_classify(args: argparse.Namespace) -> None:
    from .trace.classify import classify_blocks, sharing_profile

    trace = standard_trace(args.trace, scale=_scale(args))
    print(sharing_profile(classify_blocks(trace)).render())


def _cmd_validate(args: argparse.Namespace) -> None:
    from .core import validate_coherence
    from .protocols import create_protocol

    for name in standard_trace_names():
        report = validate_coherence(
            create_protocol(args.scheme, 4),
            standard_trace(name, scale=_scale(args)),
        )
        print(
            f"{name}: coherent over {report.references} references "
            f"({report.writes} writes, {report.copies_checked} copy checks)"
        )


def _cmd_modelcheck(args: argparse.Namespace) -> None:
    from .core import model_check
    from .protocols import create_protocol

    if args.caches < 1 or args.blocks < 1:
        raise UsageError("modelcheck: --caches and --blocks must be >= 1")
    report = model_check(
        lambda n: create_protocol(args.scheme, n),
        n_caches=args.caches,
        n_blocks=args.blocks,
    )
    print(dataclasses.replace(report, protocol=args.scheme).render())
    if not report.ok:
        raise SystemExit(1)


def _cmd_timed(args: argparse.Namespace) -> None:
    from .core import simulate_timed
    from .protocols import create_protocol

    bus = pipelined_bus()
    for name in standard_trace_names():
        result = simulate_timed(
            create_protocol(args.scheme, 4),
            standard_trace(name, scale=_scale(args)),
            bus,
            q_overhead=args.q,
        )
        print(
            f"{name}: {result.total_cycles} cycles, "
            f"bus util {result.bus_utilization:.3f}, "
            f"proc util {result.processor_utilization:.3f}, "
            f"{result.references_per_cycle:.2f} refs/cycle"
        )


def _status_snapshot_path(args: argparse.Namespace) -> Path:
    """Resolve which status snapshot the ``status`` verb should read."""
    if args.status_file:
        return Path(args.status_file)
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        raise UsageError(
            "status: pass --status-file FILE, or --cache-dir DIR to pick the "
            "most recent snapshot published there"
        )
    directory = Path(cache_dir)
    stamped = []
    for p in directory.glob(f"*{STATUS_SUFFIX}"):
        # stat() each candidate defensively: a concurrent cache clean can
        # delete a snapshot between the glob and the stat.
        try:
            stamped.append((p.stat().st_mtime, p))
        except OSError:
            continue
    candidates = [p for _, p in sorted(stamped, reverse=True)]
    if not candidates:
        raise UsageError(
            f"status: no *{STATUS_SUFFIX} snapshot in {directory} (is a "
            "sweep running there with a journal or --status-file?)"
        )
    return candidates[0]


def _journal_counts(status: dict) -> Optional[dict]:
    """ok/failed cell counts from the journal the snapshot points at."""
    journal_path = status.get("journal")
    if not journal_path or not Path(str(journal_path)).exists():
        return None
    records = SweepJournal(journal_path).load().values()
    return {
        "ok": sum(1 for r in records if r.get("status") == "ok"),
        "failed": sum(1 for r in records if r.get("status") == "failed"),
    }


def _cmd_status(args: argparse.Namespace) -> int:
    if args.watch is not None and args.watch <= 0:
        raise UsageError("status: --watch must be positive")
    path = _status_snapshot_path(args)
    rendered = False
    while True:
        status = read_status(path)
        if status is None:
            if args.watch is not None and rendered:
                # The snapshot vanished mid-watch (cache dir cleaned, sweep
                # artifacts reaped).  That ends the watch, it isn't an error.
                print(
                    f"repro-coherence: status: snapshot {path} disappeared; "
                    "ending watch",
                    file=sys.stderr,
                )
                return 0
            print(
                f"repro-coherence: status: no readable snapshot at {path}",
                file=sys.stderr,
            )
            return 1
        if rendered:
            print()
        rendered = True
        print(render_status(status, _journal_counts(status)))
        if args.watch is None or status.get("state") != "running":
            return 0
        time.sleep(args.watch)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP job API until SIGTERM/SIGINT, then drain."""
    if not args.cache_dir:
        raise UsageError(
            "serve: --cache-dir DIR is required (the service root: shared "
            "result cache plus per-job artifacts live under it)"
        )

    from .service import JobManager, run_service

    # JobManager rejects bad limits before binding; main() maps that to exit 2.
    fault_plan = None
    if args.fault_plan:
        from .resilience import FaultPlan

        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except ValueError as error:
            raise UsageError(f"serve: {error}")

    manager = JobManager(
        Path(args.cache_dir),
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_cells=args.max_cells,
        max_jobs=_jobs(args),
        rate_per_sec=args.rate_limit,
        burst=args.burst,
        job_ttl=args.job_ttl,
        state_dir=Path(args.state_dir) if args.state_dir else None,
        fault_plan=fault_plan,
        recover=not args.no_recover,
    )
    return run_service(
        manager,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
    )


def _cmd_export_trace(args: argparse.Namespace) -> None:
    trace = standard_trace(args.trace, scale=_scale(args))
    writer = write_text if args.format == "text" else write_binary
    try:
        count = writer(args.path, trace)
    except OSError as error:
        raise SystemExit(f"export-trace: cannot write {args.path}: {error}")
    print(f"wrote {count} records to {args.path} ({args.format} format)")


_COMMANDS = {
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "models": _cmd_models,
    "finite": _cmd_finite,
    "profile": _cmd_profile,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "figure1": _cmd_figure1,
    "spinlock": _cmd_spinlock,
    "trace-stats": _cmd_trace_stats,
    "storage": _cmd_storage,
    "classify": _cmd_classify,
    "validate": _cmd_validate,
    "modelcheck": _cmd_modelcheck,
    "timed": _cmd_timed,
    "export-trace": _cmd_export_trace,
    "status": _cmd_status,
    "serve": _cmd_serve,
}


def _configure_logging(args: argparse.Namespace) -> None:
    if args.log_level is not None:
        level = args.log_level
    elif args.verbose >= 2:
        level = "debug"
    elif args.verbose == 1:
        level = "info"
    else:
        level = "warning"
    setup_logging(level=level, json_lines=args.log_json)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    try:
        status = _COMMANDS[args.command](args)
    except UsageError as error:
        print(f"repro-coherence: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        # Spec and trace-format errors (TraceFormatError is a ValueError):
        # one clean line, not a traceback.
        print(f"repro-coherence: {args.command}: {error}", file=sys.stderr)
        return 2
    except CellFailure as error:
        print(f"repro-coherence: {error}", file=sys.stderr)
        return 1
    except SweepInterrupted as error:
        report = error.report
        print(
            f"repro-coherence: interrupted: {len(report.outcomes)}/"
            f"{error.total} cells completed "
            f"({len(report.failures)} of them failed); {_resume_hint(args)}",
            file=sys.stderr,
        )
        if report.outcomes:
            print(report.render_metrics(), file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("repro-coherence: interrupted", file=sys.stderr)
        return 130
    return status or 0


if __name__ == "__main__":
    sys.exit(main())
