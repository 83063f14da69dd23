"""lhvlab: exact verification of contextual local hidden-variable Bell models."""

import importlib

__version__ = "0.1.0"

# Every public name, with the submodule that defines it.  Names and submodules
# are served on first use (PEP 562): `import lhvlab` loads no submodule, and a
# CLI subcommand loads only the modules it runs.  numpy, whose import costs
# more than the rest of the package together, loads with `montecarlo` alone.
_MODULE_OF = {
    **dict.fromkeys((
        "BehaviorTable", "ContextualModel", "CorrelationQuad", "DomainMismatchError", "OutcomeTable", "Pmf",
        "Setting", "ValidationReport", "as_fraction", "behavior_from_model", "correlation_quad",
        "counterexample_model", "exact_expectation", "exact_side_expectation", "validate_model",
    ), "model"),
    **dict.fromkeys((
        "AveragedModel", "FlatModel", "FlatSetting", "bell_average", "product_flatten", "uniform_reduce",
    ), "flatten"),
    **dict.fromkeys((
        "ChshCombination", "ChshReport", "PostSelectionReport", "chsh_values", "postselected_correlations",
        "zero_to_coin",
    ), "chsh"),
    **dict.fromkeys((
        "InternalInconsistencyError", "JointDistribution16", "JointSearchResult", "NoSignallingReport",
        "check_no_signalling", "coupling_joint", "find_joint", "fine_criterion", "marginalize_context",
    ), "fine"),
    **dict.fromkeys((
        "AngleSet", "DetectionReport", "SearchConfig", "SearchOutcome", "detection_rates",
        "quantum_singlet_behavior", "search_postselection_violation",
    ), "loophole"),
    **dict.fromkeys(("random_contextual_model", "random_nosignalling_behavior"), "corpus"),
    **dict.fromkeys(("ModelParseError", "parse_path", "parse_text", "serialize"), "modelio"),
    **dict.fromkeys((
        "CorrelationEstimate", "CouplingSamples", "DagModel", "IndependenceReport", "Spreadsheet", "TrialRecord",
        "estimate_correlations", "from_contextual", "independence_diagnostic", "sample_coupling",
        "simulate_given_settings", "simulate_spreadsheet",
    ), "montecarlo"),
}
# `simplex` defines no public name but is a public submodule
_SUBMODULES = frozenset(_MODULE_OF.values()) | {"simplex"}

__all__ = sorted(_MODULE_OF.keys() | _SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per submodule
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SUBMODULES | _MODULE_OF.keys())
