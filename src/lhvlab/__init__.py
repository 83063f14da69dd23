"""lhvlab: exact verification of contextual local hidden-variable Bell models."""

from .model import (
    BehaviorTable,
    ContextualModel,
    CorrelationQuad,
    DomainMismatchError,
    OutcomeTable,
    Pmf,
    Setting,
    ValidationReport,
    as_fraction,
    behavior_from_model,
    correlation_quad,
    counterexample_model,
    exact_expectation,
    exact_side_expectation,
    validate_model,
)
from .flatten import (
    AveragedModel,
    FlatModel,
    FlatSetting,
    bell_average,
    product_flatten,
    refine_breakpoints,
    uniform_reduce,
)
from .chsh import (
    ChshCombination,
    ChshReport,
    PostSelectionReport,
    chsh_values,
    postselected_correlations,
    zero_to_coin,
)
from .fine import (
    InternalInconsistencyError,
    JointDistribution16,
    JointSearchResult,
    NoSignallingReport,
    check_no_signalling,
    coupling_joint,
    find_joint,
    fine_criterion,
    marginalize_context,
)
from .loophole import (
    AngleSet,
    DetectionReport,
    SearchConfig,
    SearchOutcome,
    detection_rates,
    quantum_singlet_behavior,
    search_postselection_violation,
)
from .corpus import random_contextual_model, random_nosignalling_behavior
from .modelio import ModelParseError, parse_path, parse_text, serialize

__version__ = "0.1.0"

# The Monte Carlo layer is the only user of numpy, whose import costs more
# than the rest of the package together.  Its names, and the submodule
# itself, are served on first use (PEP 562), so that `import lhvlab` and
# every CLI subcommand but `simulate` start without numpy.
_MONTECARLO_NAMES = frozenset({
    "CorrelationEstimate",
    "CouplingSamples",
    "DagModel",
    "IndependenceReport",
    "Spreadsheet",
    "TrialRecord",
    "estimate_correlations",
    "from_contextual",
    "independence_diagnostic",
    "sample_coupling",
    "simulate_given_settings",
    "simulate_spreadsheet",
})

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _MONTECARLO_NAMES | {"montecarlo"})


def __getattr__(name: str):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        import importlib

        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
