"""Command line front end.

One subcommand per job, one document in, one result out:

* ``decide``    run the selection procedure on a decision problem
* ``cluster``   partition intervals into neighbourhood classes
* ``generate``  draw a seeded sample sequence from a distribution mixture
* ``validate``  check a measure space against its construction axioms

``--input`` accepts a file path, an inline JSON object or ``-`` for
stdin.  Exit codes: 0 on success, 1 when the input is well-formed but
violates a domain rule or stdout cannot be written, 2 when the input
cannot be read or fails its schema.  JSON output rounds floats to twelve
significant digits and is byte-identical across runs of the same
invocation.

A large report is never held whole: a handler may return its stdout as
pieces (a member of a JSON container, a slice of a flat list), and
``main`` joins them and writes whole multiples of 64 KiB, the default
capacity of a Linux pipe, carrying the rest over.  A reader of the pipe
then gets full 64 KiB reads, as from one large write.  Ragged writes
gave a benchmark's launcher many short reads, which raised its own peak
memory, and Linux counts a process's peak into that of every child it
starts afterwards.  Every table comes as pieces too, a line or a slice
at a time; ``validate``'s few lines come as one string, which ``main``
writes through the same blocks as one piece.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .algorithms import DistributionSpec, _draw, classify
from .decisions import (
    ATTITUDES,
    DecisionProblem,
    _report_dict,
    _table_pieces,
    decide,
)
from .errors import GutError, IntervalError, ValidationError, brief, brief_repr
from .intervals import DEFAULT_TOLERANCE, _real, as_interval, endpoint_sum
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
    try:
        if source == "-":
            if sys.stdin is None:
                raise _UsageError("cannot read '-': stdin is closed")
            text = sys.stdin.read()
        elif source.lstrip().startswith("{"):
            text = source
        else:
            with open(source, encoding="utf-8") as file:
                text = file.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {brief_repr(source)}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise _UsageError(f"cannot read {brief_repr(source)}: not UTF-8 text") from None
    try:
        document = json.loads(
            text,
            parse_float=_parse_float,
            parse_int=_parse_int,
            parse_constant=_reject_constant,
        )
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(document, dict):
        raise _UsageError("the input document must be a JSON object")
    return document


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(texts: list[str]) -> list[str]:
    """Each ``.12g`` text of a float spelled as ``json`` spells the float's
    12-digit rounding.  A text with a point and no exponent already is that
    spelling: 12 digits survive the trip through a double, and ``repr``
    uses fixed notation wherever ``.12g`` does."""
    return [
        t if "." in t and "e" not in t else _FLOAT_WORDS.get(t) or float.__repr__(float(t))
        for t in texts
    ]


def _join_floats(part, sep: str) -> str:
    """The JSON texts of the floats of ``part`` joined by ``sep``.  One
    ``%`` call formats the whole slice in C.  When every text has a point
    and none an exponent, the joined text is already JSON; otherwise each
    text is spelled again only where :func:`_float_texts` must."""
    text = sep.join(["%.12g"] * len(part)) % tuple(part)
    if text.count(".") != len(part) or "e" in text:
        text = sep.join(_float_texts(text.split(sep)))
    return text


#: Elements of a flat list formatted per piece of stdout.
_SLICE = 4096

#: ``main`` writes stdout in multiples of this many characters (bytes, for
#: JSON, which is ASCII): the default capacity of a Linux pipe.
_BLOCK = 1 << 16


def _flat_joiner(values):
    """A function from a slice of ``values`` and a separator to the JSON
    texts of the slice's elements joined by it, when every element has the
    same scalar type, else None."""
    if isinstance(values[0], str):
        # Each distinct text is encoded once: a relation matrix row repeats
        # seven texts.  A member that is unhashable, or not a str, raises.
        try:
            encoded = {text: _encode_str(text) for text in set(values)}
        except TypeError:
            return None
        if all(code[1:-1] == text for text, code in encoded.items()):
            # Each text encodes to itself in quotes: one join quotes all.
            return lambda part, sep: '"' + f'"{sep}"'.join(part) + '"'
        return lambda part, sep: sep.join(map(encoded.__getitem__, part))
    # A memoryview holds doubles, as generate's elements do: none to scan.
    kinds = {float} if isinstance(values, memoryview) else set(map(type, values))
    if kinds == {float}:
        return _join_floats
    if kinds == {int}:
        return lambda part, sep: sep.join(map(int.__repr__, part))
    return None


def _json_pieces(obj, pad: str = ""):
    """``obj`` as ``json.dumps(..., indent=2)`` prints it once every float is
    rounded to 12 significant digits; tuples, memoryviews of doubles and
    iterators print as lists.  ``pad`` is the indent of the line ``obj``
    starts on.  The text comes in pieces: one per member of a container, or
    more for a large member, and one per ``_SLICE`` elements of a flat
    list, so a caller can write a large report without holding all of it.
    An iterator's members are read one at a time, as its pieces are, so a
    caller that hands over a generator of rows never holds them all; an
    empty iterator prints ``[]``."""
    if isinstance(obj, Iterator) or isinstance(obj, (dict, list, tuple, memoryview)) and obj:
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(obj, dict):
            opening = "{\n" + inner
            for key, value in obj.items():
                pieces = _json_pieces(value, inner)
                yield f"{opening}{_encode_str(key)}: {next(pieces)}"
                yield from pieces
                opening = sep
            yield f"\n{pad}}}"
            return
        join = None if isinstance(obj, Iterator) else _flat_joiner(obj)
        if join is None:
            opening = "[\n" + inner
            for value in obj:
                pieces = _json_pieces(value, inner)
                yield opening + next(pieces)
                yield from pieces
                opening = sep
            # Only an iterator can turn out to be empty here.
            yield f"\n{pad}]" if opening is sep else "[]"
            return
        for start in range(0, len(obj), _SLICE):
            opening = sep if start else "[\n" + inner
            closing = f"\n{pad}]" if start + _SLICE >= len(obj) else ""
            yield opening + join(obj[start:start + _SLICE], sep) + closing
    elif isinstance(obj, str):
        yield _encode_str(obj)
    elif isinstance(obj, float):
        yield _float_texts(["%.12g" % obj])[0]
    elif obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, (dict, list, tuple, memoryview)):
        yield "{}" if isinstance(obj, dict) else "[]"
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _as_json(obj) -> str:
    """``obj`` as one string; see :func:`_json_pieces`."""
    return "".join(_json_pieces(obj))


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (stdout, error line or None), where
# stdout is an iterable of pieces of text, which ``main`` writes in whole
# multiples of ``_BLOCK`` characters; ``validate``'s short stdout is one
# string, written as one piece.  A handler does all its domain work before
# it returns, and the pieces only format its results, so a GutError still
# leaves stdout empty.  The JSON ``decide`` report reads its relation rows
# as they are written, once ``_relation_rows`` has checked the GEUs and the
# tolerance.


def _run_decide(document: dict, args: argparse.Namespace) -> tuple[Iterable[str], None]:
    problem = DecisionProblem.from_dict(
        document, attitude=args.attitude, tolerance=args.tolerance
    )
    report = decide(problem)
    if args.format == "json":
        return _json_pieces(_report_dict(report, iter)), None
    return _table_pieces(problem, report), None


def _run_cluster(document: dict, args: argparse.Namespace) -> tuple[Iterable[str], None]:
    # JSON has no infinity to echo in the report.
    delta = document["delta"] if args.delta is None else args.delta
    delta = _real(delta, IntervalError, "delta must be finite and nonnegative, got ", 0.0)
    items = document["items"]
    if args.format == "json":
        return _json_pieces({"delta": delta, "classes": classify(items, delta)}), None
    # The table prints the intervals that classify checks: convert them once.
    items = [as_interval(item) for item in items]
    classes = classify(items, delta)
    lines = (
        f"\nclass {k}: " + ", ".join(f"{i} {items[i]}" for i in members)
        for k, members in enumerate(classes, 1)
    )
    return chain([f"delta: {delta:g}\nclasses: {len(classes)}"], lines), None


def _run_generate(document: dict, args: argparse.Namespace) -> tuple[Iterable[str], None]:
    specs = [DistributionSpec.from_dict(d) for d in document["distributions"]]
    seed = args.seed if args.seed is not None else int(document.get("seed", 0))
    k = int(document["k"])
    # The elements stay in the kernel's float64 array until they are written.
    elements = memoryview(_draw(specs, k, seed))
    payload = {"seed": seed, "k": k, "generator": "pcg64", "elements": elements}
    if args.format == "json":
        return _json_pieces(payload), None
    slices = (elements[start:start + _SLICE] for start in range(0, len(elements), _SLICE))
    body = (("\n%.12g" * len(part)) % tuple(part) for part in slices)
    return chain([f"seed: {seed}\nk: {k}\ngenerator: pcg64"], body), None


def _run_validate(document: dict, args: argparse.Namespace) -> tuple[str, str | None]:
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
    return text, f"invalid space: {ValidationError(violations)}" if violations else None


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
        if found := first_violation(document, schema):
            raise _UsageError("input does not match the schema at {}: {}".format(*found))
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # The parser, or on newer interpreters the schema check, ran out of
        # stack on a deeply nested document.
        print("error: the document is nested too deeply", file=sys.stderr)
        return 2
    try:
        text, failure = handler(document, args)
    except GutError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    stdout = sys.stdout
    if stdout is None:
        # The process started with stdout closed.
        print("error: cannot write to stdout: it is closed", file=sys.stderr)
        return 1
    try:
        if isinstance(stdout, io.TextIOWrapper):
            # A table prints names as the document spells them, lone
            # surrogates too: encode UTF-8 whatever the locale, and escape
            # what UTF-8 cannot encode.  A stream of str, such as a
            # StringIO, encodes nothing.
            stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
        block, size = [], 0
        for piece in (text,) if isinstance(text, str) else text:
            block.append(piece)
            size += len(piece)
            if size >= _BLOCK:
                # Write whole blocks: cut the last piece, which took the
                # size past a multiple of _BLOCK, and carry its tail.
                last = block.pop()
                cut = len(last) - size % _BLOCK
                block.append(last[:cut])
                stdout.write("".join(block))
                block, size = [last[cut:]], size % _BLOCK
        block.append("\n")
        stdout.write("".join(block))
        stdout.flush()
    except OSError as exc:
        # The reader went away or the device is full.  Point stdout at the
        # null device so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 1
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
