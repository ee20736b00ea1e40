"""Verification and sharing-composition benches (extensions).

1. **Sharing composition** — classify every block of each calibrated trace
   into the private / read-only / synchronisation / producer-consumer /
   migratory / read-write taxonomy; the composition explains the paper's
   Figure 1 and the workload differences of Figure 3.
2. **Coherence verification** — the value-tracking oracle validates every
   paper-core scheme over a real trace slice, and the model checker proves
   coherence over every state reachable by reads, writes and evictions on
   2- and 3-cache configurations.
3. **Competitive update/invalidate hybrid** — the limit sweep positions
   EDWP between Dragon and the invalidation schemes.
"""

from conftest import SCALE
from repro.core import model_check, validate_coherence
from repro.core.simulator import simulate
from repro.protocols import CompetitiveUpdate, create_protocol
from repro.trace import (
    classify_blocks,
    sharing_profile,
    standard_trace,
    standard_trace_names,
    take,
)
from repro.trace.classify import BlockClass


def test_sharing_composition(benchmark, save_result):
    def run():
        return {
            name: sharing_profile(
                classify_blocks(standard_trace(name, scale=SCALE))
            )
            for name in standard_trace_names()
        }

    profiles = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = []
    for name, profile in profiles.items():
        lines.append(f"{name}:")
        lines.append(profile.render())
        lines.append("")
    save_result("sharing_composition", "\n".join(lines))

    pops, pero = profiles["POPS"], profiles["PERO"]
    # Private blocks dominate by count everywhere.
    for profile in profiles.values():
        assert profile.block_share(BlockClass.PRIVATE) > 0.4
    # The lock-heavy traces devote a visible access share to synchronisation.
    assert pops.access_share(BlockClass.SYNCHRONIZATION) > 0.03
    # PERO shares least — the root cause of its cheap Figure 3 bars.
    assert pero.access_share(BlockClass.SYNCHRONIZATION) < 0.01


#: Reachable single-block states with evictions at 2 and 3 caches (the
#: pins of tests/test_modelcheck.py for these schemes).
REACHABLE_STATES = {
    "dir1nb": (6, 8),
    "wti": (5, 9),
    "dir0b": (7, 12),
    "dragon": (9, 21),
    "dirnnb": (7, 12),
    "berkeley": (9, 21),
}


def test_coherence_verification(benchmark, save_result):
    schemes = tuple(REACHABLE_STATES)

    def run():
        oracle_reports = {}
        for scheme in schemes:
            trace = take(standard_trace("POPS", scale=SCALE), 30_000)
            oracle_reports[scheme] = validate_coherence(
                create_protocol(scheme, 4), trace
            )
        checks = {
            (scheme, n_caches): model_check(
                lambda n, scheme=scheme: create_protocol(scheme, n),
                n_caches=n_caches,
            )
            for scheme in schemes
            for n_caches in (2, 3)
        }
        return oracle_reports, checks

    oracle_reports, checks = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Value-level coherence validation (30k POPS references):"]
    for scheme, report in oracle_reports.items():
        lines.append(
            f"  {scheme:<9} {report.copies_checked} copy checks, "
            f"{report.writes} writes: coherent"
        )
    lines.append("Exhaustive model check (every reachable state, with evictions):")
    for report in checks.values():
        lines.append(f"  {report.render()}")
    save_result("coherence_verification", "\n".join(lines))

    for (scheme, n_caches), report in checks.items():
        assert report.ok
        assert report.states == REACHABLE_STATES[scheme][n_caches - 2]


def test_competitive_limit_sweep(benchmark, pipe_bus, save_result):
    """Where does the update/invalidate hybrid land between Dragon and
    Dir0B as its self-invalidation limit varies?"""

    def run():
        trace = list(take(standard_trace("POPS", scale=SCALE), 60_000))
        costs = {}
        for limit in (1, 2, 4, 8, 10**9):
            result = simulate(CompetitiveUpdate(4, limit=limit), iter(trace))
            costs[limit] = result.cycles_per_reference(pipe_bus)
        dragon = simulate(create_protocol("dragon", 4), iter(trace))
        dir0b = simulate(create_protocol("dir0b", 4), iter(trace))
        return (
            costs,
            dragon.cycles_per_reference(pipe_bus),
            dir0b.cycles_per_reference(pipe_bus),
        )

    costs, dragon, dir0b = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Competitive update/invalidate (EDWP) limit sweep (POPS, pipelined):",
        f"  Dragon (pure update):      {dragon:.4f} cycles/ref",
    ]
    for limit, cost in costs.items():
        label = "inf" if limit > 100 else str(limit)
        lines.append(f"  EDWP limit={label:<4}          {cost:.4f} cycles/ref")
    lines.append(f"  Dir0B (pure invalidate):   {dir0b:.4f} cycles/ref")
    save_result("competitive_limit_sweep", "\n".join(lines))

    # Infinite limit is Dragon exactly.
    infinite = costs[10**9]
    assert infinite == dragon
    # All configurations land in the band spanned by the two pure policies
    # (with a little slack: self-invalidation can also overshoot both).
    band_low = min(dragon, dir0b) * 0.8
    band_high = max(dragon, dir0b) * 1.3
    for cost in costs.values():
        assert band_low < cost < band_high
