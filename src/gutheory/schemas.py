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
``maxItems``, ``uniqueItems`` and ``if``/``then``, and the types
``object``, ``array``, ``string``, ``number`` and ``integer``;
``$schema`` and ``title`` are annotations.  Any other keyword or type
raises ``ValueError``.  Its reasons use jsonschema's wording, with each
value or key from the document cut to a fixed length, so an error stays
one short line.

Each call compiles the schema into nested closures, one per keyword
that tests a node, so the keyword dispatch runs once per schema node
rather than once per document node.  A conforming document builds no
path string and no reason; both are assembled only for a violation.
"""

from __future__ import annotations

import re

from .algorithms import FAMILIES, MAX_DISTRIBUTIONS, MAX_K
from .decisions import ATTITUDES
from .errors import CONTROLS, brief, brief_repr
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
            "maxItems": MAX_DISTRIBUTIONS,
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

#: The classes whose instances have each type.  A value of exactly one of
#: them passes without a closer look; a bool is not a number, and a float
#: may still be an integer.
_TYPES = {"object": (dict,), "array": (list,), "string": (str,),
          "number": (int, float), "integer": (int,)}
_ANNOTATIONS = ("$schema", "title")
#: Keywords that hold member schemas, or that only "if" reads.
_APPLIED = ("properties", "prefixItems", "then")
_PLAIN_NAME = re.compile("[a-zA-Z][a-zA-Z0-9_]*")


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


def _keyword_test(keyword: str, rule, schema: dict):
    """A function that returns ``[reason]`` when a value breaks ``keyword``
    at its own level and None otherwise, or None when the keyword tests
    nothing there."""
    if keyword == "type":
        if rule not in _TYPES:
            raise ValueError(f"the schema checker does not know the type {rule!r}")
        exact = _TYPES[rule]

        def test(value):
            if value.__class__ not in exact and not _is_type(value, rule):
                return [f"{brief_repr(value)} is not of type {rule!r}"]
    elif keyword == "enum":
        allowed = set(map(_key, rule))

        def test(value):
            if _key(value) not in allowed:
                return [f"{brief_repr(value)} is not one of {rule!r}"]
    elif keyword in ("minimum", "maximum"):
        low = keyword == "minimum"
        side = "less than" if low else "greater than"

        def test(value):
            if _is_type(value, "number") and (value < rule if low else value > rule):
                return [f"{brief_repr(value)} is {side} the {keyword} of {rule!r}"]
    elif keyword in ("minLength", "minItems"):
        kind = str if keyword == "minLength" else list
        verdict = "should be non-empty" if rule == 1 else "is too short"

        def test(value):
            if isinstance(value, kind) and len(value) < rule:
                return [f"{brief_repr(value)} {verdict}"]
    elif keyword == "maxItems":
        verdict = "is expected to be empty" if rule == 0 else "is too long"

        def test(value):
            if isinstance(value, list) and len(value) > rule:
                return [f"{brief_repr(value)} {verdict}"]
    elif keyword == "uniqueItems":
        if not rule:
            return None

        def test(value):
            if isinstance(value, list) and len(set(map(_key, value))) < len(value):
                return [f"{brief_repr(value)} has non-unique elements"]
    elif keyword == "required":
        def test(value):
            if isinstance(value, dict):
                for name in rule:
                    if name not in value:
                        return [f"{name!r} is a required property"]
    elif keyword in ("items", "additionalProperties"):
        if isinstance(rule, dict):
            return None  # a member schema
        if rule is not False:
            raise ValueError(f"the schema checker reads {keyword!r} only as a schema or false")
        if keyword == "items":
            n = len(schema.get("prefixItems", ()))

            def test(value):
                if isinstance(value, list) and len(value) > n:
                    rest = value[n] if len(value) == n + 1 else value[n:]
                    return [f"Expected at most {n} item{'s' * (n != 1)} but found "
                            f"{len(value) - n} extra: {brief_repr(rest)}"]
        else:
            named = schema.get("properties", {})

            def test(value):
                if isinstance(value, dict) and not value.keys() <= named.keys():
                    extras = sorted(k for k in value if k not in named)
                    listed = brief(", ".join(map(repr, extras)))
                    verb = "was" if len(extras) == 1 else "were"
                    return [f"Additional properties are not allowed ({listed} {verb} unexpected)"]
    elif keyword == "if":
        if "then" not in schema:
            return None
        condition, then = _compile(rule), _compile(schema["then"])

        def test(value):
            if condition(value) is None:
                return then(value)
    elif keyword in _ANNOTATIONS or keyword in _APPLIED:
        return None
    else:
        raise ValueError(f"the schema checker does not interpret {keyword!r}")
    return test


def _compile(schema: dict):
    """``schema`` as one function of a value, which returns None when the
    value conforms.  Otherwise it returns a list: the reason, then the index
    or key of each member from the failing node out to the value itself."""
    tests = [test for keyword, rule in schema.items()
             if (test := _keyword_test(keyword, rule, schema)) is not None]
    prefix = [_compile(sub) for sub in schema.get("prefixItems", ())]
    rest = schema.get("items")
    rest = _compile(rest) if isinstance(rest, dict) else None
    named = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    other = schema.get("additionalProperties")
    other = _compile(other) if isinstance(other, dict) else None
    if len(tests) == 1 and not (prefix or rest or named or other):
        return tests[0]

    def check(value):
        for test in tests:
            if found := test(value):
                return found
        if isinstance(value, list):
            for i, (member, item) in enumerate(zip(prefix, value)):
                if found := member(item):
                    found.append(i)
                    return found
            if rest is not None:
                for i in range(len(prefix), len(value)):
                    if found := rest(value[i]):
                        found.append(i)
                        return found
        elif isinstance(value, dict):
            for key, item in value.items():
                member = named.get(key, other)
                if member is not None and (found := member(item)):
                    found.append(key)
                    return found
    return check


def _member_path(path: str, key: str) -> str:
    key = brief(key)
    if _PLAIN_NAME.fullmatch(key):
        return f"{path}.{key}"
    # Control characters are escaped as repr escapes them, so the path,
    # and the error line that shows it, stays on one line.
    quoted = key.replace("\\", "\\\\").replace("'", "\\'").translate(CONTROLS)
    return f"{path}['{quoted}']"


def first_violation(value, schema: dict) -> tuple[str, str] | None:
    """Return ``(json_path, reason)`` for the first place ``value`` breaks
    ``schema``, or None when it conforms.

    The walk is in document order: a node's own keywords, in schema order,
    before its members, and members in the order the document lists them.
    A keyword outside those listed in the module docstring raises
    ``ValueError``.
    """
    found = _compile(schema)(value)
    if found is None:
        return None
    reason, *keys = found
    path = "$"
    for key in reversed(keys):
        path = f"{path}[{key}]" if isinstance(key, int) else _member_path(path, key)
    return path, reason
