"""Documents drawn near each input schema.

The stdlib checker accepts a document exactly when jsonschema's
Draft 2020-12 validator does, and ``cli.main`` keeps its contract on
every drawn document: exit 0, 1 or 2, nothing raised, one ``error:``
line on failure and strict JSON on stdout.
"""

import contextlib
import io
import json
import math

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gutheory.algorithms import MAX_K
from gutheory.cli import main
from gutheory.schemas import (
    CLUSTER_SCHEMA,
    DECISION_SCHEMA,
    GENERATE_SCHEMA,
    SPACE_SCHEMA,
    first_violation,
)

INPUTS = {
    "validate": SPACE_SCHEMA,
    "decide": DECISION_SCHEMA,
    "cluster": CLUSTER_SCHEMA,
    "generate": GENERATE_SCHEMA,
}

# Values that stand where anything else is expected: a bool where a number
# goes, non-finite and out-of-range numbers, -0.0, empty containers.
TRAPS = st.sampled_from(
    [None, True, False, 0, 1, -1, 1.0, -0.0, 2.5, 1e20, 1e308, -1e308,
     10**400, math.nan, math.inf, -math.inf, "", "a", [], {}, [1, True]]
)
NAMES = st.sampled_from(["a", "b", "N1", "a b", "it's", "a\nb"])


def rarely(common, rare, odds=30):
    """Draw from ``rare`` about once in ``odds + 1`` draws.

    The rare branch sits on 1, not 0, because Hypothesis draws the bounds
    of a range far more often than the values between them.
    """
    return st.integers(0, odds).flatmap(lambda i: rare if i == 1 else common)


def spread(options):
    """One of ``options``, about evenly: ``sampled_from`` leans hard on the
    first option in a run of a hundred examples."""
    return st.integers(0, 1 << 16).map(lambda i: options[i % len(options)])


def near(schema):
    """Mostly values shaped by ``schema``, and now and then a trap."""
    return rarely(shaped(schema), TRAPS)


def shaped(schema):
    """Values built from ``schema``'s keywords, each now and then broken."""
    kind = schema.get("type")
    if "enum" in schema:
        return rarely(st.sampled_from(schema["enum"]), st.just("other"))
    if kind == "number":
        return spread([0, 0.5, 1, 100, -1, -0.0, 1e308, 1.7e308]) | st.floats(0, 1)
    if kind == "integer":
        # Small, so a drawn k stays cheap to generate; the floats are integral
        # (1.0, 1e20) or not (2.5), and MAX_K + 1 lies just past the ceiling.
        odd = spread([0, -1, 1.0, 3.0, 2.5, 1e20, MAX_K + 1])
        return rarely(st.integers(1, 12), odd, odds=4)
    if kind == "string":
        return rarely(NAMES, st.just(""))
    if kind == "array":
        head = st.tuples(*[near(s) for s in schema.get("prefixItems", [])])
        rest = schema.get("items")
        if rest is False:
            # Mostly proper intervals: endpoints in order, now and then not.
            head = rarely(head.map(_ordered), head)
            n = len(schema["prefixItems"])
            cut = rarely(st.just(n), st.integers(0, n - 1))
            tail = rarely(st.just([]), st.just([0.5]))  # a three-item interval
        else:
            cut = st.just(0)
            tail = rarely(st.lists(near(rest), min_size=1, max_size=3), st.just([]))
        return st.tuples(head, cut, tail).map(
            lambda parts: list(parts[0])[: parts[1]] + parts[2]
        )
    if kind == "object":
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            return st.dictionaries(NAMES, near(extra), max_size=3)
        required = schema.get("required", [])
        # An optional key is left out one time in three.
        base = st.fixed_dictionaries({
            key: near(sub) if key in required else rarely(near(sub), ABSENT, 2)
            for key, sub in schema.get("properties", {}).items()
        })
        # Now and then drop a required key or add an unknown one.
        change = rarely(st.just(None), st.sampled_from(required + ["x"]))
        return st.tuples(base, change).map(_changed)
    return TRAPS


def _ordered(values):
    try:
        return sorted(values)
    except TypeError:  # a string or a container among the numbers
        return values


_ABSENT = object()
ABSENT = st.just(_ABSENT)


def _changed(parts):
    drawn, key = parts
    document = {k: v for k, v in drawn.items() if v is not _ABSENT}
    if key == "x":
        document["x"] = 1
    elif key is not None:
        del document[key]
    return document


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"type": "number"}, True),
        ({"type": "integer"}, False),
        ({"type": "integer"}, 1.0),
        ({"type": "integer"}, 1e20),
        ({"type": "integer"}, 2.5),
        ({"type": "integer"}, 10**400),
        ({"minimum": 0}, True),
        ({"maximum": 1}, True),
        ({"uniqueItems": True}, [1, True]),
        ({"uniqueItems": True}, [0, False]),
        ({"uniqueItems": True}, [1, 1.0]),
        ({"uniqueItems": True}, [[1], [True]]),
        ({"uniqueItems": True}, [{"a": 1}, {"a": True}]),
        ({"uniqueItems": True}, [{"a": 1}, {"a": 1.0}]),
        ({"enum": [1]}, True),
        ({"enum": [1]}, 1.0),
        ({"enum": [True]}, 1),
        (
            GENERATE_SCHEMA,
            {"k": MAX_K, "distributions": [{"family": "exponential", "mu": 1}]},
        ),
    ],
)
def test_traps_agree_with_jsonschema(schema, value):
    expected = jsonschema.Draft202012Validator(schema).is_valid(value)
    assert (first_violation(value, schema) is None) == expected


@pytest.mark.parametrize("command", sorted(INPUTS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema(command, data):
    schema = INPUTS[command]
    document = data.draw(shaped(schema))
    expected = jsonschema.Draft202012Validator(schema).is_valid(document)
    found = first_violation(document, schema)
    assert (found is None) == expected, found
    if found:
        path, reason = found
        assert path.startswith("$") and "\n" not in path
        assert reason and "\n" not in reason


def _flags(*options):
    """No flag, or one or two of ``options``."""
    return st.tuples(spread(options), spread(options), spread([1, 2, 0])).map(
        lambda drawn: list(drawn[:drawn[2]])
    )


FLAGS = {
    "validate": _flags("--mode=strict", "--mode=coherent", "--tolerance=nan",
                       "--tolerance=0.5", "--tolerance=-1"),
    "decide": _flags("--attitude=averse", "--attitude=seeking", "--tolerance=nan",
                     "--tolerance=inf", "--tolerance=-0.0"),
    "cluster": _flags("--delta=0.1", "--delta=0", "--delta=-0.0", "--delta=inf",
                      "--delta=-inf", "--delta=nan", "--delta=1e400", "--delta=1e308"),
    "generate": _flags("--seed=3", "--seed=-1"),
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("command", sorted(INPUTS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract(command, data):
    argv = [command, "--input", json.dumps(data.draw(shaped(INPUTS[command])))]
    argv += data.draw(FLAGS[command])
    for fmt in ("json", "table"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
        if fmt == "json" and out.getvalue():
            json.loads(out.getvalue(), parse_constant=_reject_constant)
