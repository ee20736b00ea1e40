"""Measure how steady the benchmark is, and keep the evidence.

    python3 perfbench/steadiness.py

Runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json`` once per (set,
workload, seed): :data:`SETS` sets of :data:`RUNS` runs per workload, one
run at a time, each set with its own seeds.  For every end-to-end metric
it records, per workload and per set, the median and quartiles of the
runs' values under three estimators computed from the same samples:

* ``normalized`` — what ``run.py`` reports: the best sample of the run
  (for ``setup_s`` the median launch), scaled by the run's host speed (its
  calibration kernel's best time, capped; ``host_speed`` records it
  uncapped);
* ``best_of_r`` — the best sample of the run, unscaled;
* ``median_of_r`` — the median sample of the run.

``spread`` is the interquartile range as a share of the median (what the
bound in ``BENCHMARK.json`` is compared with); ``disagreement`` is how far
the second set's median lies from the first's, as a share of the first.
The result is written to ``steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-grid", "holdouts-finite", "service-roundtrip")
ESTIMATORS = ("best_of_r", "median_of_r", "normalized")
SETS = 2
RUNS = 10
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
OUT = HERE / "steadiness.json"


def one_run(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed:\n{completed.stdout}{completed.stderr}"
        )
    estimates = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines
        if line.startswith("estimates ")
    )
    reported = json.loads(lines[-1])["metrics"]
    estimates["normalized"]["peak_rss_mb"] = reported["peak_rss_mb"]["value"]
    return {"seed": seed, "wall_s": time.perf_counter() - start, **estimates}


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    runs = {workload: [] for workload in WORKLOADS}
    for set_index in range(SETS):
        for workload in WORKLOADS:
            for run_index in range(RUNS):
                seed = 1000 * (set_index + 1) + run_index
                record = one_run(workload, seed)
                runs[workload].append(record)
                print(
                    f"set {set_index + 1} {workload} seed {seed}: "
                    + json.dumps(record["normalized"])
                    + " best_of_r "
                    + json.dumps(record["best_of_r"]),
                    flush=True,
                )

    report = {"seconds": SECONDS, "runs_per_set": RUNS, "workloads": {}}
    for workload, records in runs.items():
        sets = [
            records[i * RUNS:(i + 1) * RUNS] for i in range(SETS)
        ]
        metrics = {}
        for metric in records[0]["normalized"]:
            entry = {}
            for estimator in ESTIMATORS:
                if metric not in records[0][estimator]:
                    continue
                per_set = [
                    summarize([r[estimator][metric] for r in one_set])
                    for one_set in sets
                ]
                entry[estimator] = {"sets": per_set}
                if len(per_set) > 1:
                    first = per_set[0]["median"]
                    entry[estimator]["disagreement"] = (
                        abs(per_set[1]["median"] - first) / first
                    )
            metrics[metric] = entry
        report["workloads"][workload] = {
            "metrics": metrics,
            "host_speed": [r["host_speed"] for r in records],
            "run_wall_s": [r["wall_s"] for r in records],
        }
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, data in report["workloads"].items():
        for metric, entry in data["metrics"].items():
            for estimator, summary in entry.items():
                spreads = ", ".join(f"{s['spread']:.3f}" for s in summary["sets"])
                disagreement = summary.get("disagreement")
                print(
                    f"{workload:18} {metric:12} {estimator:12} spread {spreads}"
                    + (f" disagreement {disagreement:.3f}" if disagreement is not None else "")
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
