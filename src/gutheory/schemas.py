"""JSON Schemas for every document the command line reads or writes.

The input schemas gate documents before any domain code runs, so shape
errors surface as usage errors (exit code 2) rather than computation
errors.  The report schemas describe what each subcommand prints with
``--format json``; copies of all of them are published under
``docs/schemas/`` and a test keeps the copies in sync.
"""

from __future__ import annotations

from .algorithms import FAMILIES
from .decisions import ATTITUDES, SelectionRationale
from .intervals import Relation
from .spaces import MODES

_DRAFT = "https://json-schema.org/draft/2020-12/schema"

_INTERVAL = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}

_RELATION = {"enum": [r.value for r in Relation]}
_MODE = {"enum": list(MODES)}
_ATTITUDE = {"enum": list(ATTITUDES)}

SPACE_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Measure space document",
    "type": "object",
    "required": ["atoms", "gum"],
    "additionalProperties": False,
    "properties": {
        "atoms": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"type": "string", "minLength": 1},
        },
        "gum": {"type": "object", "additionalProperties": _INTERVAL},
        "mode": _MODE,
    },
}

DECISION_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Decision problem document",
    "type": "object",
    "required": ["natures", "schemes"],
    "additionalProperties": False,
    "properties": {
        "natures": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "gum"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "gum": _INTERVAL,
                },
            },
        },
        "schemes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "payoffs"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "payoffs": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "number"},
                    },
                },
            },
        },
        "attitude": _ATTITUDE,
    },
}

CLUSTER_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Neighbourhood classing document",
    "type": "object",
    "required": ["delta", "items"],
    "additionalProperties": False,
    "properties": {
        "delta": {"type": "number"},
        "items": {"type": "array", "items": _INTERVAL},
    },
}

GENERATE_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Sequence generation document",
    "type": "object",
    "required": ["k", "distributions"],
    "additionalProperties": False,
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "distributions": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["family", "mu"],
                "additionalProperties": False,
                "properties": {
                    "family": {"enum": list(FAMILIES)},
                    "mu": {"type": "number"},
                    "sigma2": {"type": "number"},
                },
                "if": {
                    "properties": {"family": {"enum": ["normal", "uniform"]}}
                },
                "then": {"required": ["sigma2"]},
            },
        },
    },
}

DECISION_REPORT_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Decision report",
    "type": "object",
    "required": [
        "schemes",
        "geus",
        "relations",
        "comparisons",
        "selected",
        "rationale",
        "attitude",
        "note",
    ],
    "additionalProperties": False,
    "properties": {
        "schemes": {"type": "array", "items": {"type": "string"}},
        "geus": {"type": "array", "items": _INTERVAL},
        "relations": {
            "type": "array",
            "items": {"type": "array", "items": _RELATION},
        },
        "comparisons": {
            "type": "array",
            "items": {
                "anyOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "required": ["scheme", "versus", "relation"],
                        "additionalProperties": False,
                        "properties": {
                            "scheme": {"type": "string"},
                            "versus": {"type": "string"},
                            "relation": _RELATION,
                        },
                    },
                ]
            },
        },
        "selected": {"type": "string"},
        "rationale": {"enum": [r.value for r in SelectionRationale]},
        "attitude": {"anyOf": [{"type": "null"}, _ATTITUDE]},
        "note": {"anyOf": [{"type": "null"}, {"type": "string"}]},
    },
}

CLUSTER_REPORT_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Neighbourhood classing report",
    "type": "object",
    "required": ["delta", "classes"],
    "additionalProperties": False,
    "properties": {
        "delta": {"type": "number"},
        "classes": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
}

GENERATE_REPORT_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Sequence generation report",
    "type": "object",
    "required": ["seed", "k", "generator", "elements"],
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "k": {"type": "integer", "minimum": 1},
        "generator": {"const": "pcg64"},
        "elements": {"type": "array", "items": {"type": "number"}},
    },
}

VALIDATE_REPORT_SCHEMA = {
    "$schema": _DRAFT,
    "title": "Space validation report",
    "type": "object",
    "required": ["valid", "mode", "atoms", "sum_left", "sum_right", "violations"],
    "additionalProperties": False,
    "properties": {
        "valid": {"type": "boolean"},
        "mode": _MODE,
        "atoms": {"type": "integer", "minimum": 0},
        "sum_left": {"anyOf": [{"type": "null"}, {"type": "number"}]},
        "sum_right": {"anyOf": [{"type": "null"}, {"type": "number"}]},
        "violations": {"type": "array", "items": {"type": "string"}},
    },
}

#: Name to schema mapping mirrored by the files in docs/schemas/.
PUBLISHED = {
    "space_input": SPACE_SCHEMA,
    "decision_input": DECISION_SCHEMA,
    "cluster_input": CLUSTER_SCHEMA,
    "generate_input": GENERATE_SCHEMA,
    "decision_report": DECISION_REPORT_SCHEMA,
    "cluster_report": CLUSTER_REPORT_SCHEMA,
    "generate_report": GENERATE_REPORT_SCHEMA,
    "validate_report": VALIDATE_REPORT_SCHEMA,
}
