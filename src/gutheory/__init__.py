"""Interval-valued uncertainty: measures, variables, and decisions.

Belief about an event is carried as a pair of bounds ``[left, right]``
instead of a single probability.  The package provides the arithmetic and
ordering of such bounds, finite measure spaces built from them, discrete
variables and function envelopes with an interval calculus, mixture
sequence generation with neighbourhood classing, and an expected-utility
decision procedure, all exposed through the ``gut`` command line as well.
"""

from .algorithms import DistributionSpec, GUSequence, classify, generate_sequence
from .decisions import (
    ComparisonEntry,
    DecisionProblem,
    DecisionReport,
    NatureStatus,
    Scheme,
    SelectionRationale,
    decide,
    geu,
    relation_matrix,
    render_decision_table,
    report_to_dict,
)
from .errors import (
    AttitudeRequiredError,
    ConditioningError,
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    EnvelopeError,
    EventError,
    GutError,
    IntervalError,
    NestingError,
    ValidationError,
)
from .intervals import (
    DEFAULT_TOLERANCE,
    GUInterval,
    Relation,
    add,
    as_interval,
    compare,
    complement,
    delta_neighbour,
    div,
    endpoint_sum,
    gud,
    inverse,
    mul,
    normalize,
    sub,
)
from .spaces import GUMeasureSpace, axiom_violations
from .variables import (
    CovarianceResult,
    DiscreteGUVariable,
    GUFunctionEnvelope,
    JointDiscreteGUVariable,
    NestedLimit,
    covariance,
    density_expectation,
    gu_derivative,
    gu_integral,
    gu_limit,
    gu_variation,
    nested_limit,
)

__version__ = "0.1.0"

__all__ = [
    "AttitudeRequiredError",
    "ComparisonEntry",
    "ConditioningError",
    "ConfigurationError",
    "ConvergenceError",
    "CovarianceResult",
    "DEFAULT_TOLERANCE",
    "DecisionProblem",
    "DecisionReport",
    "DegeneracyError",
    "DiscreteGUVariable",
    "DistributionSpec",
    "EnvelopeError",
    "EventError",
    "GUFunctionEnvelope",
    "GUInterval",
    "GUMeasureSpace",
    "GUSequence",
    "GutError",
    "IntervalError",
    "JointDiscreteGUVariable",
    "NatureStatus",
    "NestedLimit",
    "NestingError",
    "Relation",
    "Scheme",
    "SelectionRationale",
    "ValidationError",
    "add",
    "as_interval",
    "axiom_violations",
    "classify",
    "compare",
    "complement",
    "covariance",
    "decide",
    "delta_neighbour",
    "density_expectation",
    "div",
    "endpoint_sum",
    "generate_sequence",
    "geu",
    "gu_derivative",
    "gu_integral",
    "gu_limit",
    "gu_variation",
    "gud",
    "inverse",
    "mul",
    "nested_limit",
    "normalize",
    "relation_matrix",
    "render_decision_table",
    "report_to_dict",
    "sub",
]
