"""Interval-valued uncertainty: measures, variables, and decisions.

Belief about an event is carried as a pair of bounds ``[left, right]``
instead of a single probability.  The package provides the arithmetic and
ordering of such bounds, finite measure spaces built from them, discrete
variables and function envelopes with an interval calculus, mixture
sequence generation with neighbourhood classing, and an expected-utility
decision procedure, all exposed through the ``gut`` command line as well.

Each public name is imported from its home module on first use, so a
program that needs part of the package (such as ``gut``, which never
touches ``variables``) loads only that part.
"""

import importlib

__version__ = "0.1.0"

#: Each home module and the public names it exports.
_EXPORTS = {
    "algorithms": ("DistributionSpec", "GUSequence", "classify", "generate_sequence"),
    "decisions": (
        "ComparisonEntry", "DecisionProblem", "DecisionReport", "NatureStatus",
        "Scheme", "SelectionRationale", "decide", "geu", "relation_matrix",
        "render_decision_table", "report_to_dict",
    ),
    "errors": (
        "AttitudeRequiredError", "ConditioningError", "ConfigurationError",
        "ConvergenceError", "DegeneracyError", "EnvelopeError", "EventError",
        "GutError", "IntervalError", "NestingError", "ValidationError",
    ),
    "intervals": (
        "DEFAULT_TOLERANCE", "GUInterval", "Relation", "add", "as_interval",
        "compare", "complement", "delta_neighbour", "div", "endpoint_sum", "gud",
        "inverse", "mul", "normalize", "sub",
    ),
    "spaces": ("GUMeasureSpace", "axiom_violations"),
    "variables": (
        "CovarianceResult", "DiscreteGUVariable", "GUFunctionEnvelope",
        "JointDiscreteGUVariable", "NestedLimit", "covariance",
        "density_expectation", "gu_derivative", "gu_integral", "gu_limit",
        "gu_variation", "nested_limit",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
