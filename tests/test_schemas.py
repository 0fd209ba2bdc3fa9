"""The files under docs/schemas are rendered from ``schemas.PUBLISHED``.

Regenerate them with::

    python3 -c "from gutheory.schemas import PUBLISHED; import json, pathlib; \
        [pathlib.Path(f'docs/schemas/{n}.schema.json').write_text(\
            json.dumps(s, indent=2) + '\\n') for n, s in PUBLISHED.items()]"
"""

import json
from pathlib import Path

import jsonschema
import pytest

from gutheory.schemas import PUBLISHED

INPUTS = {name: schema for name, schema in PUBLISHED.items() if name.endswith("_input")}

# Every keyword and type name ``schemas.first_violation`` interprets, and
# the annotations it may skip.
CHECKED = {
    "type", "enum", "minimum", "maximum", "minLength",
    "required", "properties", "additionalProperties",
    "items", "prefixItems", "minItems", "uniqueItems", "if", "then",
}
ANNOTATIONS = {"$schema", "title"}
TYPES = {"object", "array", "string", "number", "integer"}

DOCS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_docs_copy_matches_source(name):
    path = DOCS / f"{name}.schema.json"
    assert path.is_file(), f"missing schema file {path}"
    assert json.loads(path.read_text()) == PUBLISHED[name]


def test_no_unexpected_schema_files():
    found = {p.name for p in DOCS.glob("*.schema.json")}
    assert found == {f"{name}.schema.json" for name in PUBLISHED}


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_schemas_are_valid_draft_2020_12(name):
    jsonschema.Draft202012Validator.check_schema(PUBLISHED[name])


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
