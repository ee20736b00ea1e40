"""Frozen outputs of the paper's analyses (Sections 5.2 and 6).

The golden regression and the signature corpus pin single simulations;
this snapshot pins what the analysis layer makes of them: the spin-lock
experiment, the DiriB/DiriNB pointer sweeps, the processor-count scaling
sweeps and the standard comparison's trace-averaged cycles, the latter at
one and two jobs.  Every value must match ``tests/golden/analyses.json``
exactly after a JSON round trip, so a change to how an analysis drives its
simulations cannot move a number unnoticed.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/test_analyses_golden.py \
        --update-golden
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis.scalability import sweep_dirib, sweep_dirinb
from repro.analysis.scaling import (
    dirib_broadcast_scaling,
    dirinb_miss_scaling,
    fanout_scaling,
)
from repro.analysis.spinlock import spin_lock_impact
from repro.core.comparison import run_standard_comparison
from repro.interconnect.bus import pipelined_bus
from repro.trace.synthetic import WorkloadProfile
from repro.trace.workloads import standard_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "analyses.json"

TRACES = ("POPS", "THOR", "PERO")
SCALE = 1 / 256
POINTER_COUNTS = (1, 2, 4)
PROCESSOR_COUNTS = (4, 8)
#: Small enough that the 8-processor point stays well under a second.
BASE_PROFILE = WorkloadProfile(
    name="scalegold",
    length=3_000,
    seed=23,
    w_lock=0.3,
    n_locks=1,
    lock_hold_turns=(8, 16),
    w_migratory=0.6,
    w_consume=0.4,
    w_produce=0.3,
)


def _factories():
    return {
        name: (lambda name=name: standard_trace(name, scale=SCALE))
        for name in TRACES
    }


def _standard_cycles(jobs: int) -> Dict[str, float]:
    comparison = run_standard_comparison(scale=SCALE, jobs=jobs)
    bus = pipelined_bus()
    return {
        protocol: comparison.average_cycles(protocol, bus)
        for protocol in comparison.protocols
    }


def _analyses() -> Dict[str, object]:
    factories = _factories()
    return {
        "spin_lock_impact": {
            scheme: asdict(impact)
            for scheme, impact in spin_lock_impact(factories).items()
        },
        "sweep_dirib": [
            asdict(point) for point in sweep_dirib(factories, POINTER_COUNTS)
        ],
        "sweep_dirinb": [
            asdict(point) for point in sweep_dirinb(factories, POINTER_COUNTS)
        ],
        "fanout_scaling": [
            asdict(point)
            for point in fanout_scaling(BASE_PROFILE, PROCESSOR_COUNTS)
        ],
        "dirib_broadcast_scaling": [
            asdict(point)
            for point in dirib_broadcast_scaling(BASE_PROFILE, 2, PROCESSOR_COUNTS)
        ],
        "dirinb_miss_scaling": [
            asdict(point)
            for point in dirinb_miss_scaling(BASE_PROFILE, 2, PROCESSOR_COUNTS)
        ],
        "standard_comparison_jobs1": _standard_cycles(jobs=1),
        "standard_comparison_jobs2": _standard_cycles(jobs=2),
    }


@pytest.fixture(scope="module")
def current() -> Dict[str, object]:
    return json.loads(json.dumps(_analyses()))


@pytest.fixture(scope="module")
def golden(request, current) -> Dict[str, object]:
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing analyses snapshot {GOLDEN_PATH}; generate it with "
            "pytest --update-golden"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_snapshot_covers_every_analysis(current, golden):
    assert set(golden) == set(current)


@pytest.mark.parametrize(
    "analysis",
    [
        "spin_lock_impact",
        "sweep_dirib",
        "sweep_dirinb",
        "fanout_scaling",
        "dirib_broadcast_scaling",
        "dirinb_miss_scaling",
        "standard_comparison_jobs1",
        "standard_comparison_jobs2",
    ],
)
def test_analysis_matches_snapshot(analysis, current, golden):
    assert current[analysis] == golden[analysis], f"{analysis} drifted"


def test_job_count_does_not_change_the_comparison(current):
    assert current["standard_comparison_jobs1"] == current["standard_comparison_jobs2"]
