"""Guard: one front door for simulation.

Every simulation in ``src/repro`` goes through ``simulate()``, reached
either through ``RunSpec.run()`` (grids, sweeps, the service) or through
``run_comparison`` (caller-supplied traces: the analyses).  The reference
pipeline is built only by the core engine, and a run feeds its whole
trace once.  These checks read the source's syntax
tree, so a new private feed loop, or a second feed-and-merge path, fails
here rather than drifting from the sweep engine unnoticed.

The service has the same shape one level up: one ``run_sweep`` call runs
every job, and one settle step ends it.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The only modules allowed to call ``simulate(...)``.
SIMULATE_CALLERS = {"runner/spec.py", "core/comparison.py"}

#: The only (module, function) pairs allowed to call ``.feed(...)``: the
#: run wrapper and the value oracle.  The fast backend's reference fallback
#: steps the pipeline per decoded reference instead.
FEED_CALLERS = {
    ("core/pipeline.py", "run"),
    ("core/oracle.py", "validate_coherence"),
}


@functools.lru_cache(maxsize=None)
def _trees() -> Dict[str, ast.AST]:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text("utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _callers_of(name: str) -> List[str]:
    return sorted(
        {
            module
            for module, tree in _trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == name
        }
    )


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = _trees()[module]
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_simulate_is_called_only_from_the_two_drivers():
    callers = _callers_of("simulate")
    assert set(callers) <= SIMULATE_CALLERS, callers
    assert set(callers) == SIMULATE_CALLERS


def _feed_callers(node: ast.AST, module: str, function: str, found: set) -> None:
    """Collect (module, innermost enclosing function) of each ``.feed(``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "feed"
    ):
        found.add((module, function))
    for child in ast.iter_child_nodes(node):
        _feed_callers(child, module, function, found)


def test_feed_is_called_only_by_the_two_single_pass_drivers():
    callers: set = set()
    for module, tree in _trees().items():
        _feed_callers(tree, module, "<module>", callers)
    assert callers == FEED_CALLERS, sorted(callers ^ FEED_CALLERS)


def test_reference_pipeline_is_built_only_by_the_core():
    builders = _callers_of("ReferencePipeline")
    strays = [module for module in builders if not module.startswith("core/")]
    assert not strays, strays


def _numpy_imports(node: ast.AST) -> bool:
    """True if ``node`` or any node inside it imports numpy."""
    for child in ast.walk(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_no_module_imports_numpy():
    importers = sorted(
        module for module, tree in _trees().items() if _numpy_imports(tree)
    )
    assert not importers, importers


def test_importing_repro_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_the_finite_wrapper_is_gone():
    assert not (SRC / "core" / "finite.py").exists()


def test_standard_comparison_has_one_code_path():
    body = _function("core/comparison.py", "run_standard_comparison")
    assert not [node for node in ast.walk(body) if isinstance(node, ast.If)]
    assert "run_comparison" not in {
        _called_name(node) for node in ast.walk(body) if isinstance(node, ast.Call)
    }


def test_inline_and_worker_attempts_share_one_function():
    for module, function in (
        ("runner/sweep.py", "_run_inline"),
        ("resilience/executor.py", "_cell_worker"),
    ):
        calls = {
            _called_name(node)
            for node in ast.walk(_function(module, function))
            if isinstance(node, ast.Call)
        }
        assert "run_attempt" in calls, f"{module}:{function}"
        assert not {"run", "fire_worker_faults", "collect_manifest"} & calls, (
            f"{module}:{function} re-implements part of an attempt"
        )


#: The only functions in ``service/`` that may set a job's state to anything
#: but QUEUED or RUNNING: the settle step, and journal replay restoring
#: terminal records.
TERMINAL_STATE_SETTERS = {"_settle", "recover", "_rebuild_job"}


def _state_assignments(node: ast.AST, function: str, found: list) -> None:
    """Collect (innermost enclosing function, value) of each ``x.state = ...``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Attribute) and target.attr == "state":
                found.append((function, node.value))
    for child in ast.iter_child_nodes(node):
        _state_assignments(child, function, found)


def _service_trees() -> Dict[str, ast.AST]:
    return {
        module: tree
        for module, tree in _trees().items()
        if module.startswith("service/")
    }


def test_the_service_calls_run_sweep_once():
    calls = [
        module
        for module, tree in _service_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "run_sweep"
    ]
    assert calls == ["service/jobs.py"], calls


def test_only_the_settle_step_ends_a_job():
    found: list = []
    for tree in _service_trees().values():
        _state_assignments(tree, "<module>", found)
    assert "_settle" in {function for function, _value in found}
    strays = [
        (function, ast.unparse(value))
        for function, value in found
        if function not in TERMINAL_STATE_SETTERS
        and not (
            isinstance(value, ast.Attribute)
            and value.attr in ("QUEUED", "RUNNING")
        )
    ]
    assert not strays, strays
