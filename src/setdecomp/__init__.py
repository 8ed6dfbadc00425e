"""Set-based decomposition of functional requirements for dynamic systems.

Contracts over named variable ranges, their refinement and composition laws,
and a four-step pipeline that turns a top-level requirement plus a functional
architecture into consistent sub-requirements: classification, initial
feasible spaces, simulation-based narrowing, and a barrier trade-off for the
final ranges.
"""

from .architecture import (Architecture, Classification, State, SubFunction,
                           classify, load_architecture, validate_coverage)
from .errors import SetDecompError
from .intervals import Interval, RangeMap, interval_intersect, rangemap_merge
from .narrowing import FeasibleSpaces, NarrowingResult, initial_spaces, narrow
from .pipeline import PipelineReport, run_pipeline
from .requirements import (FunctionalRequirement, TimedOutputSpec,
                           check_composable, check_refines, compose, links)
from .simulation import Envelope, SamplingPlan, Trajectory, build_ode, envelope_over_box, integrate
from .tradeoff import PreferenceWeights, TradeoffResult, run_tradeoff

__version__ = "0.1.0"

__all__ = [
    "Architecture", "Classification",
    "Envelope", "FeasibleSpaces", "FunctionalRequirement",
    "Interval", "NarrowingResult", "PipelineReport",
    "PreferenceWeights", "RangeMap", "SamplingPlan",
    "SetDecompError", "State", "SubFunction", "TimedOutputSpec", "TradeoffResult",
    "Trajectory", "build_ode", "check_composable", "check_refines",
    "classify", "compose", "envelope_over_box", "initial_spaces",
    "integrate", "interval_intersect", "links", "load_architecture", "narrow",
    "rangemap_merge", "run_pipeline", "run_tradeoff", "validate_coverage",
    "__version__",
]
