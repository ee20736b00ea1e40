"""The sweep's cell states: every cell settles once, and every record agrees.

``run_sweep`` moves each cell from ``pending`` to a final state (hit,
repriced, simulated or failed) through one transition step, which stores
the outcome, bumps the per-sweep count and its ``sweep.*`` counter, writes
the cache and the journal line and calls ``progress``.  The property below
drives random grids with leaders and followers, transient and permanent
faults, both execution paths and a cold then warm pass, and checks that
every record of one sweep tells the same story.  The two example tests pin
the counts a status snapshot publishes when sweeps share one registry.
"""

import json
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import read_status
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, SweepJournal
from repro.runner import ResultCache, RunSpec, run_sweep
from repro.service import JobManager, ServiceClient, start_background
from repro.service.schema import REQUEST_SCHEMA_VERSION

SCALE = 1.0 / 2048.0

PROTOCOLS = ("dir0b", "dragon", "wti")
CHARACTERIZATIONS = ("pipelined", "non-pipelined")

#: The sweep.* counters a report's counts correspond to.
COUNTS = {
    "simulated": "sweep.simulated",
    "cache_hits": "sweep.cache_hits",
    "repriced": "sweep.repriced",
    "failed": "sweep.failures",
}


def _grid(protocols, characterizations):
    return [
        RunSpec(
            protocol=protocol, trace="POPS", scale=SCALE, seed=11,
            characterization=name,
        )
        for protocol in protocols
        for name in characterizations
    ]


def _report_counts(report):
    return {
        "simulated": report.simulations,
        "cache_hits": report.cache_hits,
        "repriced": report.repricings,
        "failed": len(report.failures),
    }


def _journal_cells(path: Path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [line for line in lines if line.get("event") == "cell"]


def _check_one_sweep(specs, run_dir: Path, cache, registry, jobs, faults):
    """Run ``specs`` once and check every record against the others."""
    settled = []
    journal = SweepJournal(run_dir / "sweep.journal.jsonl")
    status = run_dir / "sweep.status.json"
    before = {name: registry.counter_value(c) for name, c in COUNTS.items()}
    report = run_sweep(
        specs, jobs=jobs, cache=cache, registry=registry,
        progress=settled.append, retry=RetryPolicy(1, base_seconds=0.0),
        keep_going=True, faults=faults, journal=journal, status_path=status,
    )
    keys = [spec.cache_key() for spec in specs]

    # Each cell settles exactly once, and progress fires once per cell.
    assert [outcome.spec for outcome in report.outcomes] == specs
    assert Counter(o.spec.cache_key() for o in settled) == Counter(keys)

    # One journal line per cell, whose status matches the outcome.
    lines = _journal_cells(journal.path)
    assert Counter(line["key"] for line in lines) == Counter(keys)
    by_key = {line["key"]: line for line in lines}
    for key, outcome in zip(keys, report.outcomes):
        assert by_key[key]["status"] == ("ok" if outcome.ok else "failed")
        assert by_key[key]["cached"] == outcome.cached

    # The report, the final snapshot and the registry deltas agree.
    counts = _report_counts(report)
    snapshot = read_status(status)
    assert snapshot["state"] == "finished"
    assert {name: snapshot[name] for name in counts} == counts
    assert snapshot["done"] == len(specs)
    assert snapshot["ok"] == len(report.successes)
    deltas = {
        name: registry.counter_value(counter) - before[name]
        for name, counter in COUNTS.items()
    }
    assert deltas == counts
    return report


@settings(max_examples=8, deadline=None)
@given(
    protocols=st.lists(
        st.sampled_from(PROTOCOLS), min_size=1, max_size=3, unique=True
    ),
    cold_names=st.lists(
        st.sampled_from(CHARACTERIZATIONS), min_size=1, max_size=2, unique=True
    ),
    warm_names=st.lists(
        st.sampled_from(CHARACTERIZATIONS), min_size=1, max_size=2, unique=True
    ),
    faulted=st.dictionaries(
        st.sampled_from(PROTOCOLS), st.sampled_from([1, None]), max_size=2
    ),
    jobs=st.sampled_from([1, 2]),
)
@example(
    protocols=["dir0b", "dragon"], cold_names=list(CHARACTERIZATIONS),
    warm_names=["non-pipelined"], faulted={"dir0b": 1, "dragon": None},
    jobs=1,
)
@example(
    protocols=["dir0b", "wti"], cold_names=["pipelined"],
    warm_names=list(CHARACTERIZATIONS), faulted={"wti": None, "dir0b": 1},
    jobs=2,
)
def test_every_record_of_a_sweep_tells_one_story(
    protocols, cold_names, warm_names, faulted, jobs
):
    """Cold then warm, with transient (attempt 1) and permanent faults:
    the outcomes, progress calls, journal lines, status snapshot and
    registry deltas all count the same cells once."""
    cold = _grid(protocols, cold_names)
    warm = _grid(protocols, warm_names)
    if len(cold) < 2:
        cold = _grid(protocols, CHARACTERIZATIONS)
    faults = FaultPlan(
        faults=tuple(
            FaultSpec(cell=f"{protocol}:*", kind="raise", attempt=attempt)
            for protocol, attempt in faulted.items()
        ),
        seed=0,
    )
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cache = ResultCache(root / "cache")
        for name, specs in (("cold", cold), ("warm", warm)):
            (root / name).mkdir()
            report = _check_one_sweep(
                specs, root / name, cache, registry, jobs, faults
            )
            for outcome in report.outcomes:
                permanent = faulted.get(outcome.spec.protocol, 1) is None
                assert outcome.ok is not permanent


def test_status_snapshot_counts_only_its_own_sweep(tmp_path):
    """Three sweeps share one registry: each snapshot reads that sweep's
    counts, the same as its report (not the registry's running totals)."""
    registry = MetricsRegistry()
    cache = ResultCache(tmp_path / "cache")
    specs = _grid(PROTOCOLS, (None,))
    seen = []
    for run in range(3):
        status = tmp_path / f"run{run}.status.json"
        report = run_sweep(
            specs, cache=cache, registry=registry, status_path=status
        )
        snapshot = read_status(status)
        assert {name: snapshot[name] for name in COUNTS} == (
            _report_counts(report)
        )
        seen.append((snapshot["simulated"], snapshot["cache_hits"]))
    assert seen == [(3, 0), (0, 3), (0, 3)]


@contextmanager
def _service(tmp_path):
    manager = JobManager(tmp_path / "svc")
    handle = start_background(manager)
    try:
        yield ServiceClient(handle.base_url, client="tester")
    finally:
        handle.stop(drain=False)


def _request(*protocols):
    return {
        "schema": REQUEST_SCHEMA_VERSION,
        "sweep": {"protocols": list(protocols), "traces": ["POPS"], "scale": 512},
    }


def test_fully_cached_jobs_snapshot_their_own_counts(tmp_path):
    """The service runs fully cached jobs inline against its one registry;
    each job's ``sweep`` object still counts only that job's cells."""
    with _service(tmp_path) as client:
        first = client.submit(_request(*PROTOCOLS))
        assert client.wait(first["id"], timeout=180)["state"] == "finished"
        for protocol in PROTOCOLS:
            job = client.submit(_request(protocol))
            assert job["deduped"] is True
            sweep = client.wait(job["id"], timeout=60)["sweep"]
            assert (sweep["cache_hits"], sweep["simulated"]) == (1, 0)
