"""JSON Schemas for the four documents the command line reads.

The input schemas gate documents before any domain code runs, so shape
errors surface as usage errors (exit code 2) rather than computation
errors.  Copies are published under ``docs/schemas/`` and a test keeps
them in sync.  What each subcommand prints with ``--format json`` is
described only there, by the ``*_report.schema.json`` files.

:func:`first_violation` checks a document against an input schema with
the standard library alone.  It interprets only the keywords the input
schemas use: ``type``, ``enum``, ``minimum``, ``maximum``,
``minLength``, ``required``, ``properties``, ``additionalProperties``,
``items`` (a schema or ``false``), ``prefixItems``, ``minItems``,
``uniqueItems`` and ``if``/``then``, and the types ``object``, ``array``,
``string``, ``number`` and ``integer``; ``$schema`` and ``title`` are
annotations.  Its reasons use jsonschema's wording, with each value or
key from the document cut to a fixed length, so an error stays one short
line.
"""

from __future__ import annotations

import re

from .algorithms import FAMILIES, MAX_K
from .decisions import ATTITUDES
from .errors import brief
from .spaces import MODES

_DRAFT = "https://json-schema.org/draft/2020-12/schema"

_INTERVAL = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}

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
        "mode": {"enum": list(MODES)},
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
        "attitude": {"enum": list(ATTITUDES)},
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
        "k": {"type": "integer", "minimum": 1, "maximum": MAX_K},
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

_TYPES = {"object": dict, "array": list, "string": str}
_PLAIN_NAME = re.compile("[a-zA-Z][a-zA-Z0-9_]*")
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _is_type(value, name: str) -> bool:
    if name not in ("number", "integer"):
        return isinstance(value, _TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    # Like jsonschema, an integral float such as 1.0 counts as an integer.
    return name == "number" or isinstance(value, int) or value.is_integer()


def _key(value):
    """A hashable stand-in under JSON equality: 1 equals 1.0 but not true."""
    if isinstance(value, list):
        return "array", tuple(map(_key, value))
    if isinstance(value, dict):
        return "object", frozenset((k, _key(v)) for k, v in value.items())
    return isinstance(value, bool), value


def _reason(keyword: str, rule, value, schema: dict) -> str | None:
    """What ``value`` breaks of one keyword at its own level, if anything."""
    if keyword == "type" and not _is_type(value, rule):
        return f"{brief(repr(value))} is not of type {rule!r}"
    if keyword == "enum" and _key(value) not in set(map(_key, rule)):
        return f"{brief(repr(value))} is not one of {rule!r}"
    if keyword == "minimum" and _is_type(value, "number") and value < rule:
        return f"{brief(repr(value))} is less than the minimum of {rule!r}"
    if keyword == "maximum" and _is_type(value, "number") and value > rule:
        return f"{brief(repr(value))} is greater than the maximum of {rule!r}"
    if (keyword == "minLength" and isinstance(value, str)
            or keyword == "minItems" and isinstance(value, list)) and len(value) < rule:
        verdict = "should be non-empty" if rule == 1 else "is too short"
        return f"{brief(repr(value))} {verdict}"
    if keyword == "uniqueItems" and rule and isinstance(value, list):
        if len(set(map(_key, value))) < len(value):
            return f"{brief(repr(value))} has non-unique elements"
    if keyword == "items" and rule is False and isinstance(value, list):
        n = len(schema.get("prefixItems", ()))
        if len(value) > n:
            rest = value[n] if len(value) == n + 1 else value[n:]
            return (f"Expected at most {n} item{'s' * (n != 1)} "
                    f"but found {len(value) - n} extra: {brief(repr(rest))}")
    if keyword == "required" and isinstance(value, dict):
        missing = [name for name in rule if name not in value]
        return f"{missing[0]!r} is a required property" if missing else None
    if keyword == "additionalProperties" and rule is False and isinstance(value, dict):
        extras = sorted(k for k in value if k not in schema.get("properties", {}))
        if extras:
            listed = brief(", ".join(map(repr, extras)))
            verb = "was" if len(extras) == 1 else "were"
            return f"Additional properties are not allowed ({listed} {verb} unexpected)"
    return None


def _member_path(path: str, key: str) -> str:
    key = brief(key)
    if _PLAIN_NAME.fullmatch(key):
        return f"{path}.{key}"
    quoted = key.replace("\\", "\\\\").replace("'", "\\'")
    # Control characters are escaped as repr escapes them, so the path,
    # and the error line that shows it, stays on one line.
    quoted = _CONTROL.sub(lambda m: repr(m[0])[1:-1], quoted)
    return f"{path}['{quoted}']"


def first_violation(value, schema: dict, path: str = "$") -> tuple[str, str] | None:
    """Return ``(json_path, reason)`` for the first place ``value`` breaks
    ``schema``, or None when it conforms.

    The walk is in document order: a node's own keywords, in schema order,
    before its members, and members in the order the document lists them.
    """
    for keyword, rule in schema.items():
        if keyword == "if":
            if "then" in schema and first_violation(value, rule) is None:
                if found := first_violation(value, schema["then"], path):
                    return found
        elif reason := _reason(keyword, rule, value, schema):
            return path, reason
    if isinstance(value, list):
        prefix, rest = schema.get("prefixItems", ()), schema.get("items")
        members = ((f"{path}[{i}]", item, prefix[i] if i < len(prefix) else rest)
                   for i, item in enumerate(value))
    elif isinstance(value, dict):
        named, rest = schema.get("properties", {}), schema.get("additionalProperties")
        members = ((_member_path(path, k), item, named.get(k, rest))
                   for k, item in value.items())
    else:
        return None
    for member_path, item, subschema in members:
        if isinstance(subschema, dict):
            if found := first_violation(item, subschema, member_path):
                return found
    return None
