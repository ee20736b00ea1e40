"""The service-roundtrip workload: a real ``serve`` process and one client.

The client is closed-loop: it sends the next request only after the
previous one has been answered, and keeps one job in flight.  A cold job
runs in the service's per-job child process; the warm and reprice jobs are
served inline by the service's dedupe path (every cell already cached).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.service import ServiceClient, ServiceError

from layers import TRACE_DIR_ENV
from workloads import (
    CORE_SCHEMES,
    SAMPLES,
    SCALE_DENOMINATOR,
    TRACES,
    PassResult,
    Repetition,
    canonical,
    unwrapped,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Seconds between status polls while a cold service job runs.
POLL_SECONDS = 0.02


def service_request(seed: int, characterization: Optional[str] = None) -> dict:
    return {
        "schema": 1,
        "sweep": {
            "protocols": list(CORE_SCHEMES),
            "traces": list(TRACES),
            "scale": SCALE_DENOMINATOR,
            "seeds": [seed],
            "backend": "fast",
            "characterizations": [characterization],
        },
    }


def subprocess_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.update(extra or {})
    return env


class Server:
    """One ``repro-coherence serve --port 0 --workers 1`` on a fresh root."""

    def __init__(self, root: Path, trace_dir: Optional[Path] = None) -> None:
        serve = [
            "--cache-dir", str(root), "serve", "--port", "0", "--workers", "1",
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
            env = subprocess_env()
        else:
            command = [
                sys.executable, "-c",
                "import sys, layers; layers.install(); "
                "from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                *serve,
            ]
            env = subprocess_env({TRACE_DIR_ENV: str(trace_dir)})
        self.lines: List[str] = []
        self._listening = threading.Event()
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = ""

    def _drain(self) -> None:
        # Keep reading to EOF so server logging can never fill the pipe.
        for line in self.process.stderr:
            self.lines.append(line.rstrip())
            if line.startswith("listening on "):
                self.url = line.split()[-1]
                self._listening.set()
        self._listening.set()

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/readyz`` answers 200."""
        deadline = self.started + timeout
        if not self._listening.wait(timeout) or not self.url:
            raise RuntimeError("serve exited before listening: " + " | ".join(self.lines[-5:]))
        client = ServiceClient(self.url, client="perfbench", timeout=5)
        while time.perf_counter() < deadline:
            try:
                client.ready()
                return time.perf_counter() - self.started
            except (ServiceError, OSError):
                time.sleep(0.002)
        raise RuntimeError("serve never became ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)


def _signatures_and_cycles(result: dict):
    signatures = {
        entry["cell_id"]: canonical(entry["signature"])
        for entry in result["outcomes"]
        if entry["ok"]
    }
    cycles = {}
    for line in result["cell_table"].splitlines()[2:]:
        fields = line.split()
        if len(fields) == 8 and fields[6] != "FAILED":
            cycles[(fields[0], fields[1])] = float(fields[6])
    return signatures, cycles


def service_pass(client: ServiceClient, request: dict, wrap=unwrapped) -> PassResult:
    """One job, submit to result; ``wrap`` wraps the timed region."""
    requests = failed = 0

    def call(method, *args):
        nonlocal requests, failed
        requests += 1
        try:
            return method(*args)
        except (ServiceError, OSError):
            failed += 1
            raise

    def timed():
        try:
            job = call(client.submit, request)
            while job["state"] not in ("finished", "failed", "cancelled"):
                time.sleep(POLL_SECONDS)
                job = call(client.status, job["id"])
            if job["state"] != "finished":
                return job, None
            return job, call(client.result, job["id"])
        except (ServiceError, OSError):
            return None, None

    timed = wrap(timed)
    start = time.perf_counter()
    job, result = timed()
    seconds = time.perf_counter() - start
    if result is None:
        return PassResult(
            seconds=seconds, cells=len(CORE_SCHEMES) * len(TRACES),
            simulated=0, simulated_refs=0, signatures={},
            requests=requests, requests_failed=failed,
        )
    signatures, cycles = _signatures_and_cycles(result)
    simulated_refs = sum(
        entry["references"]
        for entry in result["outcomes"]
        if entry["ok"] and not entry["cached"] and not entry["repriced"]
    )
    return PassResult(
        seconds=seconds,
        cells=result["cells"],
        simulated=result["simulated"],
        simulated_refs=simulated_refs,
        signatures=signatures,
        cycles=cycles,
        job=(job["submitted_at"], job["started_at"], job["finished_at"]),
        requests=requests,
        requests_failed=failed,
    )


def service_repetition(
    client: ServiceClient,
    trace_seed: int,
    characterizations: List[str],
    wrap=unwrapped,
) -> Repetition:
    """Cold, warm and reprice jobs for one fresh held-out trace seed."""
    cold_request = service_request(trace_seed)
    return Repetition(
        cold=service_pass(client, cold_request, wrap),
        warm=[service_pass(client, cold_request, wrap) for _ in range(SAMPLES)],
        reprice=[
            service_pass(client, service_request(trace_seed, path), wrap)
            for path in characterizations
        ],
    )
