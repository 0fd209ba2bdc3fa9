"""The files under docs/schemas: the input schemas are rendered from
``gutheory.schemas``, and the report schemas, which live only there,
agree with the code values they copy.

Regenerate the four input files with::

    python3 -c "from gutheory.schemas import *; import json, pathlib; \
        [pathlib.Path(f'docs/schemas/{n}_input.schema.json').write_text(\
            json.dumps(s, indent=2) + '\\n') for n, s in [('space', SPACE_SCHEMA), \
            ('decision', DECISION_SCHEMA), ('cluster', CLUSTER_SCHEMA), \
            ('generate', GENERATE_SCHEMA)]]"
"""

import json
import re
from functools import reduce
from operator import getitem
from pathlib import Path

import jsonschema
import pytest

from gutheory.algorithms import MAX_K
from gutheory.decisions import ATTITUDES, SelectionRationale
from gutheory.intervals import Relation
from gutheory.schemas import (
    CLUSTER_SCHEMA,
    DECISION_SCHEMA,
    GENERATE_SCHEMA,
    SPACE_SCHEMA,
    first_violation,
)
from gutheory.spaces import MODES

INPUTS = {
    "space_input": SPACE_SCHEMA,
    "decision_input": DECISION_SCHEMA,
    "cluster_input": CLUSTER_SCHEMA,
    "generate_input": GENERATE_SCHEMA,
}
REPORTS = ("decision_report", "cluster_report", "generate_report", "validate_report")

_RELATION = {"enum": [r.value for r in Relation]}
# The values each report file copies from code, keyed by their path under
# the file's top-level "properties".
COPIED = {
    "decision_report": {
        ("relations", "items", "items"): _RELATION,
        ("comparisons", "items", "anyOf", 1, "properties", "relation"): _RELATION,
        ("rationale",): {"enum": [r.value for r in SelectionRationale]},
        ("attitude",): {"anyOf": [{"type": "null"}, {"enum": list(ATTITUDES)}]},
    },
    "generate_report": {("k", "maximum"): MAX_K},
    "validate_report": {("mode",): {"enum": list(MODES)}},
}

# Every keyword and type name ``schemas.first_violation`` interprets, and
# the annotations it may skip.
CHECKED = {
    "type", "enum", "minimum", "maximum", "minLength",
    "required", "properties", "additionalProperties",
    "items", "prefixItems", "minItems", "maxItems", "uniqueItems", "if", "then",
}
ANNOTATIONS = {"$schema", "title"}
TYPES = {"object", "array", "string", "number", "integer"}
# Every other Draft 2020-12 keyword, and some annotations.
UNCHECKED = (
    set(jsonschema.Draft202012Validator.VALIDATORS) | {"else", "description", "default"}
) - CHECKED

DOCS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load(name: str) -> dict:
    return json.loads((DOCS / f"{name}.schema.json").read_text())


@pytest.mark.parametrize("name", sorted([*INPUTS, *COPIED]))
def test_docs_copy_matches_source(name):
    path = DOCS / f"{name}.schema.json"
    assert path.is_file(), f"missing schema file {path}"
    if name in INPUTS:
        assert load(name) == INPUTS[name]
    for keys, value in COPIED.get(name, {}).items():
        assert reduce(getitem, keys, load(name)["properties"]) == value, keys


def test_no_unexpected_schema_files():
    found = {p.name for p in DOCS.glob("*.schema.json")}
    assert found == {f"{name}.schema.json" for name in [*INPUTS, *REPORTS]}


@pytest.mark.parametrize("name", sorted([*INPUTS, *REPORTS]))
def test_schemas_are_valid_draft_2020_12(name):
    jsonschema.Draft202012Validator.check_schema(load(name))


def _subschemas(schema):
    yield schema
    for keyword, rule in schema.items():
        if keyword == "properties":
            nested = list(rule.values())
        elif keyword == "prefixItems":
            nested = rule
        elif isinstance(rule, dict):
            nested = [rule]
        else:
            nested = []
        for sub in nested:
            yield from _subschemas(sub)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_input_schemas_use_only_checked_keywords(name):
    for sub in _subschemas(INPUTS[name]):
        assert set(sub) <= CHECKED | ANNOTATIONS, sub
        assert sub.get("type", "object") in TYPES, sub
        first_violation(None, sub)
        # The checker is compiled from every keyword it meets, and it
        # raises on one it does not interpret rather than skip it.
        for keyword in sorted(UNCHECKED):
            with pytest.raises(ValueError, match=re.escape(f"not interpret {keyword!r}")):
                first_violation(None, {**sub, keyword: 1})
        with pytest.raises(ValueError, match="does not know the type 'null'"):
            first_violation(None, {**sub, "type": "null"})
