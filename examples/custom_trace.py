#!/usr/bin/env python3
"""Bring your own workload: custom profiles, trace files, finite caches.

Shows the three ways to feed the simulator beyond the built-in POPS / THOR /
PERO profiles:

1. build a custom :class:`WorkloadProfile` (here: an 8-process
   producer/consumer pipeline with one contended queue lock);
2. round-trip the trace through the ATUM-style file formats — which is also
   how *real* captured traces enter the simulator;
3. re-run the same workload with finite set-associative caches to see
   capacity misses stack on top of the sharing cost.

Run:  python examples/custom_trace.py
"""

import tempfile
from pathlib import Path

from repro import (
    CacheGeometry,
    collect_stats,
    pipelined_bus,
    simulate,
)
from repro.protocols import create_protocol
from repro.trace.atum import read_binary, write_binary
from repro.trace.synthetic import SyntheticWorkload, WorkloadProfile


def build_pipeline_profile() -> WorkloadProfile:
    """An 8-process software pipeline: heavy mailbox traffic, one queue lock."""
    return WorkloadProfile(
        name="PIPELINE",
        length=80_000,
        seed=7,
        processes=8,
        processors=8,
        w_compute=8.0,
        w_produce=1.5,
        w_consume=1.5,
        w_migratory=0.2,
        w_lock=0.3,
        n_locks=1,
        lock_hold_turns=(10, 25),
        mailbox_blocks_per_process=64,
        private_blocks_per_process=300,
    )


def main() -> None:
    profile = build_pipeline_profile()
    bus = pipelined_bus()

    # 1. Generate and characterise the custom workload.
    trace = list(SyntheticWorkload(profile).records())
    stats = collect_stats(trace, name=profile.name)
    print(
        f"{stats.name}: {stats.total} refs, "
        f"{stats.processes} processes, "
        f"{100 * stats.shared_block_fraction:.0f}% of blocks shared, "
        f"{100 * stats.lock_spin_fraction_of_reads:.0f}% of reads are spins"
    )

    # 2. Round-trip through the binary ATUM-style format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pipeline.atum"
        write_binary(path, trace)
        print(
            f"wrote {path.stat().st_size / 1024:.0f} KiB trace file; "
            "re-reading it for simulation"
        )
        reloaded = list(read_binary(path))
    assert reloaded == trace

    # 3. Simulate with infinite caches, then with finite ones.
    print()
    print(f"{'scheme':<10} {'infinite':>10} {'64x2 finite':>12} {'evictions':>10}")
    for scheme in ("dir0b", "dirnnb", "dragon", "wti"):
        infinite = simulate(create_protocol(scheme, 8), iter(reloaded))
        finite = simulate(
            create_protocol(scheme, 8),
            iter(reloaded),
            geometry=CacheGeometry(n_sets=64, associativity=2),
        )
        print(
            f"{scheme:<10} "
            f"{infinite.cycles_per_reference(bus):>10.4f} "
            f"{finite.cycles_per_reference(bus):>12.4f} "
            f"{finite.evictions:>10}"
        )
    print(
        "\nFinite caches add capacity misses on top of the coherence cost -\n"
        "the first-order correction the paper describes in Section 4."
    )


if __name__ == "__main__":
    main()
