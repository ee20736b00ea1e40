"""Sweep-runner performance: serial vs parallel throughput, cache latency.

Not a paper experiment — a perf benchmark of the :mod:`repro.runner`
subsystem so later PRs have a trajectory to compare against.  Beyond the
human-readable artifact, it emits machine-readable
``benchmarks/results/BENCH_sweep.json`` assembled from each run's
:class:`~repro.obs.metrics.MetricsRegistry` (via
:meth:`~repro.runner.sweep.SweepReport.metrics_dict`), so the bench
artifact and ``repro-coherence sweep --metrics-json`` share one schema.

Parallel speedup depends on the machine: on a single hardware thread the
worker pool only adds overhead, which is itself worth tracking.
"""

from __future__ import annotations

import json
import os
import time

from conftest import RESULTS_DIR, SCALE

from repro.obs import MetricsRegistry
from repro.runner import ResultCache, run_sweep, sweep_grid

#: A grid small enough to run three times (serial, parallel, cached).
SWEEP_SCHEMES = ("dir0b", "dragon")
SWEEP_JOBS = int(os.environ.get("REPRO_BENCH_SWEEP_JOBS", "2"))


def test_sweep_throughput_and_cache_latency(tmp_path_factory, save_result):
    specs = sweep_grid(SWEEP_SCHEMES, scale=SCALE)

    serial = run_sweep(specs, jobs=1, registry=MetricsRegistry())
    parallel = run_sweep(specs, jobs=SWEEP_JOBS, registry=MetricsRegistry())
    assert serial.cell_table() == parallel.cell_table()

    cache_registry = MetricsRegistry()
    cache = ResultCache(
        tmp_path_factory.mktemp("sweep-cache"), registry=cache_registry
    )
    cold = run_sweep(specs, jobs=1, cache=cache, registry=cache_registry)
    start = time.perf_counter()
    warm = run_sweep(specs, jobs=1, cache=cache, registry=cache_registry)
    warm_wall = time.perf_counter() - start
    assert warm.simulations == 0
    assert warm.cell_table() == serial.cell_table()
    # Inline cells share one trace per distinct profile (3 traces); each
    # worker cell generates its own; a warm sweep generates none.
    assert serial.trace_generations == cold.trace_generations == 3
    assert parallel.trace_generations == (len(specs) if SWEEP_JOBS > 1 else 3)
    assert warm.trace_generations == 0

    payload = {
        "grid": {
            "schemes": list(SWEEP_SCHEMES),
            "traces": sorted({spec.trace for spec in specs}),
            "cells": len(specs),
            "scale_denominator": round(1.0 / SCALE),
            "references": serial.total_references,
        },
        "serial": serial.metrics_dict(),
        "parallel": parallel.metrics_dict(),
        "cache_cold": cold.metrics_dict(),
        "cache_warm": warm.metrics_dict(),
        "derived": {
            "parallel_speedup": (
                serial.wall_time / parallel.wall_time
                if parallel.wall_time > 0
                else 0.0
            ),
            "cache_hit_latency_s_per_cell": (
                warm_wall / warm.cells if warm.cells else 0.0
            ),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sweep.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # The cold+warm runs shared one registry: its counters must add up.
    snapshot = cache_registry.as_dict()["counters"]
    assert snapshot["sweep.cells"] == 2 * len(specs)
    assert snapshot["sweep.simulated"] == len(specs)
    assert snapshot["sweep.cache_hits"] == len(specs)
    assert snapshot["cache.hit"] == len(specs)
    assert snapshot["cache.miss"] == len(specs)

    save_result(
        "sweep_runner",
        "\n".join(
            [
                "Sweep runner throughput "
                f"({len(specs)} cells, {serial.total_references:,} refs)",
                f"serial:   {serial.wall_time:8.2f}s  "
                f"{serial.refs_per_sec:12,.0f} refs/sec",
                f"parallel: {parallel.wall_time:8.2f}s  "
                f"{parallel.refs_per_sec:12,.0f} refs/sec  "
                f"(jobs={SWEEP_JOBS}, "
                f"speedup {payload['derived']['parallel_speedup']:.2f}x)",
                f"cache:    {warm_wall:8.2f}s warm replay  "
                f"({payload['derived']['cache_hit_latency_s_per_cell'] * 1e3:.1f} "
                "ms/cell)",
            ]
        ),
    )
