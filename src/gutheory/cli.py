"""Command line front end.

One subcommand per job, one document in, one result out:

* ``decide``    run the selection procedure on a decision problem
* ``cluster``   partition intervals into neighbourhood classes
* ``generate``  draw a seeded sample sequence from a distribution mixture
* ``validate``  check a measure space against its construction axioms

``--input`` accepts a file path, an inline JSON object or ``-`` for
stdin.  Exit codes: 0 on success, 1 when the input is well-formed but
violates a domain rule, 2 when the input cannot be read or fails its
schema.  JSON output rounds floats to twelve significant digits and is
byte-identical across runs of the same invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .algorithms import DistributionSpec, classify, generate_sequence
from .decisions import (
    ATTITUDES,
    DecisionProblem,
    decide,
    render_decision_table,
    report_to_dict,
)
from .errors import GutError, IntervalError, brief
from .intervals import DEFAULT_TOLERANCE, as_interval, endpoint_sum
from .schemas import (
    CLUSTER_SCHEMA,
    DECISION_SCHEMA,
    GENERATE_SCHEMA,
    SPACE_SCHEMA,
    first_violation,
)
from .spaces import MODES, axiom_violations


class _UsageError(Exception):
    """Input could not be read or does not match its schema (exit 2)."""


def _reject_constant(token: str):
    raise _UsageError(f"non-finite number {token} is not valid JSON")


def _beyond_float_range(token: str) -> _UsageError:
    return _UsageError(f"number {brief(token)} lies beyond the float range")


def _parse_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise _beyond_float_range(token)
    return value


def _parse_int(token: str) -> int:
    try:
        value = int(token)
        float(value)
    except (OverflowError, ValueError):
        raise _beyond_float_range(token) from None
    return value


def _load_document(source: str) -> dict:
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot read {source!r}: {exc}") from None
    try:
        document = json.loads(
            text,
            parse_float=_parse_float,
            parse_int=_parse_int,
            parse_constant=_reject_constant,
        )
    except _UsageError:
        raise
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(document, dict):
        raise _UsageError("the input document must be a JSON object")
    return document


def _check_schema(document: dict, schema: dict) -> None:
    found = first_violation(document, schema)
    if found:
        raise _UsageError("input does not match the schema at {}: {}".format(*found))


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _as_json(payload: dict) -> str:
    return json.dumps(_round12(payload), indent=2)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (stdout text, exit code).


def _run_decide(document: dict, args: argparse.Namespace) -> tuple[str, int]:
    problem = DecisionProblem.from_dict(
        document, attitude=args.attitude, tolerance=args.tolerance
    )
    report = decide(problem)
    if args.format == "json":
        return _as_json(report_to_dict(report)), 0
    return render_decision_table(problem, report), 0


def _run_cluster(document: dict, args: argparse.Namespace) -> tuple[str, int]:
    delta = args.delta if args.delta is not None else float(document["delta"])
    if math.isinf(delta):
        # JSON has no infinity to echo in the report.
        raise IntervalError(f"delta must be finite, got {delta}")
    classes = classify(document["items"], delta)
    if args.format == "json":
        return _as_json({"delta": delta, "classes": classes}), 0
    items = [as_interval(item) for item in document["items"]]
    lines = [f"delta: {delta:g}", f"classes: {len(classes)}"]
    for k, members in enumerate(classes):
        listed = ", ".join(f"{i} {items[i]}" for i in members)
        lines.append(f"class {k + 1}: {listed}")
    return "\n".join(lines), 0


def _run_generate(document: dict, args: argparse.Namespace) -> tuple[str, int]:
    specs = [DistributionSpec.from_dict(d) for d in document["distributions"]]
    seed = args.seed if args.seed is not None else int(document.get("seed", 0))
    k = int(document["k"])
    sequence = generate_sequence(specs, k, seed)
    payload = {
        "seed": seed,
        "k": k,
        "generator": "pcg64",
        "elements": list(sequence.elements),
    }
    if args.format == "json":
        return _as_json(payload), 0
    lines = [f"seed: {seed}", f"k: {k}", "generator: pcg64"]
    lines += [f"{x:.12g}" for x in sequence.elements]
    return "\n".join(lines), 0


def _run_validate(document: dict, args: argparse.Namespace) -> tuple[str, int]:
    atoms = document["atoms"]
    assignment = document["gum"]
    mode = args.mode if args.mode is not None else document.get("mode", "coherent")
    violations = axiom_violations(atoms, assignment, mode, args.tolerance)
    sum_left = sum_right = None
    try:
        total = endpoint_sum(
            as_interval(assignment[a]) for a in atoms if a in assignment
        )
        sum_left, sum_right = total.left, total.right
    except GutError:
        pass
    payload = {
        "valid": not violations,
        "mode": mode,
        "atoms": len(atoms),
        "sum_left": sum_left,
        "sum_right": sum_right,
        "violations": list(violations),
    }
    if args.format == "json":
        text = _as_json(payload)
    else:
        lines = [
            f"valid: {'yes' if not violations else 'no'}",
            f"mode: {mode}",
            f"atoms: {len(atoms)}",
            f"sum left: {'n/a' if sum_left is None else f'{sum_left:.12g}'}",
            f"sum right: {'n/a' if sum_right is None else f'{sum_right:.12g}'}",
        ]
        if violations:
            lines.append("violations:")
            lines += [f"  - {v}" for v in violations]
        text = "\n".join(lines)
    if violations:
        print(f"error: invalid space: {'; '.join(violations)}", file=sys.stderr)
        return text, 1
    return text, 0


_COMMANDS = {
    "decide": (_run_decide, DECISION_SCHEMA),
    "cluster": (_run_cluster, CLUSTER_SCHEMA),
    "generate": (_run_generate, GENERATE_SCHEMA),
    "validate": (_run_validate, SPACE_SCHEMA),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gut",
        description="Interval-valued uncertainty calculations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input",
        required=True,
        help="path to a JSON document, an inline JSON object, or - for stdin",
    )
    common.add_argument(
        "--format",
        choices=("json", "table"),
        default="table",
        help="output style (default: table)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    decide_p = sub.add_parser(
        "decide", parents=[common], help="select a scheme from a decision problem"
    )
    decide_p.add_argument(
        "--attitude",
        choices=ATTITUDES,
        help="risk attitude override for the final selection stage",
    )
    decide_p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="comparison tolerance (default: 1e-9)",
    )

    cluster_p = sub.add_parser(
        "cluster", parents=[common], help="partition intervals into neighbour classes"
    )
    cluster_p.add_argument(
        "--delta", type=float, help="neighbourhood radius override"
    )

    generate_p = sub.add_parser(
        "generate", parents=[common], help="draw a seeded sample sequence"
    )
    generate_p.add_argument("--seed", type=int, help="random seed override")

    validate_p = sub.add_parser(
        "validate", parents=[common], help="check a measure space against its axioms"
    )
    validate_p.add_argument(
        "--mode", choices=MODES, help="validation mode override"
    )
    validate_p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="axiom tolerance (default: 1e-9)",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, schema = _COMMANDS[args.command]
    try:
        document = _load_document(args.input)
        _check_schema(document, schema)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # The parser, or on newer interpreters the schema check, ran out of
        # stack on a deeply nested document.
        print("error: the document is nested too deeply", file=sys.stderr)
        return 2
    try:
        text, code = handler(document, args)
    except GutError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
