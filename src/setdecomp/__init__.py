"""Set-based decomposition of functional requirements for dynamic systems.

Contracts over named variable ranges, their refinement and composition laws,
and a four-step pipeline that turns a top-level requirement plus a functional
architecture into consistent sub-requirements: classification, initial
feasible spaces, simulation-based narrowing, and a barrier trade-off for the
final ranges.

Each export is resolved on first use (PEP 562) from its submodule in the
table ``_EXPORTS``, so ``import setdecomp`` imports no submodule and a name
brings in only what its submodule needs:

* ``architecture``, ``errors``, ``intervals``, ``requirements``,
  ``tradeoff`` — the model, the contracts and their laws, and the
  trade-off's closed form; none of them imports numpy;
* ``narrowing``, ``pipeline``, ``simulation`` — initial spaces, narrowing
  and the simulator; each of them imports numpy.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names the package root exports from it
_EXPORTS = {name: module for module, names in {
    "architecture": ("Architecture", "Classification", "State", "SubFunction",
                     "classify", "load_architecture", "validate_coverage"),
    "errors": ("SetDecompError",),
    "intervals": ("Interval", "RangeMap", "interval_intersect", "rangemap_merge"),
    "requirements": ("FunctionalRequirement", "TimedOutputSpec", "check_composable",
                     "check_refines", "compose", "links"),
    "narrowing": ("FeasibleSpaces", "NarrowingResult", "initial_spaces", "narrow"),
    "pipeline": ("PipelineReport", "run_pipeline"),
    "simulation": ("Envelope", "SamplingPlan", "Trajectory", "build_ode",
                   "envelope_over_box", "integrate"),
    "tradeoff": ("PreferenceWeights", "TradeoffResult", "run_tradeoff"),
}.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
