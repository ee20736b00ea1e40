"""Core simulation engine: the reference pipeline and its wrappers."""

from .comparison import ComparisonResult, run_comparison, run_standard_comparison
from .counters import EventFrequencies, SimulationCounters
from .invalidation import InvalidationHistogram
from .modelcheck import ModelCheckReport, model_check
from .oracle import (
    CoherenceOracle,
    CoherenceViolation,
    OracleReport,
    validate_coherence,
)
from .pipeline import ReferencePipeline, SetAssociativeLRU
from .fastsim import FastPipeline
from .timing import TimingResult, simulate_timed
from .metrics import (
    MissRateDecomposition,
    decompose_miss_rate,
    effective_processors,
)
from .simulator import (
    BACKENDS,
    SimulationResult,
    make_pipeline,
    simulate,
)

__all__ = [
    "BACKENDS",
    "FastPipeline",
    "make_pipeline",
    "ComparisonResult",
    "run_comparison",
    "run_standard_comparison",
    "EventFrequencies",
    "SimulationCounters",
    "InvalidationHistogram",
    "ModelCheckReport",
    "model_check",
    "CoherenceOracle",
    "CoherenceViolation",
    "OracleReport",
    "validate_coherence",
    "ReferencePipeline",
    "SetAssociativeLRU",
    "TimingResult",
    "simulate_timed",
    "MissRateDecomposition",
    "decompose_miss_rate",
    "effective_processors",
    "SimulationResult",
    "simulate",
]
