"""Traced child of the ``gut`` benchmark: one document, timed call by call.

Usage: ``python trace_child.py <spec.json>``, with ``src`` on ``PYTHONPATH``.
The spec names a ``mode`` (``trace`` or ``count``), the ``gut`` argument
list, the file the results go to and, for ``count``, the documents of the
kernel scaling points.

``trace`` imports the CLI and then calls the library's public functions in
the order ``gutheory.cli`` calls them, timing each call with
``perf_counter``, and prints the rendered output as the CLI would, so the
parent can check that the calls reproduce the CLI's stdout byte for byte.

``count`` is a separate, untimed child.  It wraps the module-level
``compare`` and ``delta_neighbour`` names to count calls; the wrappers
slow the kernels, so nothing is timed while they are in place.  It also
times ``relation_matrix`` on its own and the kernels at the smaller
scaling sizes.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

perf = time.perf_counter


class Spans(dict):
    """Phase name -> milliseconds of one timed call."""

    def call(self, name, fn, *args, **kwargs):
        t0 = perf()
        result = fn(*args, **kwargs)
        self[name] = (perf() - t0) * 1e3
        return result


def trace(argv):
    spans = Spans()
    t0 = perf()
    from gutheory import cli
    spans["import"] = (perf() - t0) * 1e3
    rss_after_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import jsonschema
    from gutheory import algorithms, decisions, schemas, spaces

    args = spans.call("argparse", lambda: cli.build_parser().parse_args(argv))
    document = spans.call("load", cli._load_document, args.input)
    schema = {
        "decide": schemas.DECISION_SCHEMA,
        "cluster": schemas.CLUSTER_SCHEMA,
        "generate": schemas.GENERATE_SCHEMA,
        "validate": schemas.SPACE_SCHEMA,
    }[args.command]
    spans.call("schema", jsonschema.validate, document, schema)
    result = {"spans": spans, "rss_after_import_mb": rss_after_import}

    if args.command == "decide":
        problem = spans.call(
            "build", decisions.DecisionProblem.from_dict, document,
            attitude=args.attitude, tolerance=args.tolerance,
        )
        report = spans.call("kernel", decisions.decide, problem)
        if args.format == "json":
            text = spans.call("render", lambda: cli._as_json(decisions.report_to_dict(report)))
        else:
            text = spans.call("render", decisions.render_decision_table, problem, report)

    elif args.command == "cluster":
        delta = args.delta if args.delta is not None else float(document["delta"])
        classes = spans.call("kernel", algorithms.classify, document["items"], delta)
        if args.format != "json":
            raise SystemExit("the traced run renders cluster output as JSON only")
        text = spans.call("render", cli._as_json, {"delta": delta, "classes": classes})

    elif args.command == "generate":
        specs = spans.call(
            "build", lambda: [algorithms.DistributionSpec.from_dict(d) for d in document["distributions"]]
        )
        seed = args.seed if args.seed is not None else int(document.get("seed", 0))
        k = int(document["k"])
        sequence = spans.call("kernel", algorithms.generate_sequence, specs, k, seed)
        if args.format != "json":
            raise SystemExit("the traced run renders generate output as JSON only")
        text = spans.call(
            "render", lambda: cli._as_json(
                {"seed": seed, "k": k, "generator": "pcg64", "elements": list(sequence.elements)}
            ),
        )

    else:
        mode = args.mode if args.mode is not None else document.get("mode", "coherent")
        violations = spans.call(
            "kernel", spaces.axiom_violations, document["atoms"], document["gum"], mode, args.tolerance
        )
        # The CLI's handler runs the kernel and formats its result.  With
        # the kernel's result already in hand, it is handed the result in
        # the kernel's place, so the render span holds only the formatting.
        cli.axiom_violations = lambda *_: violations
        text, _ = spans.call("render", cli._run_validate, document, args)

    t0 = perf()
    sys.stdout.write(text + "\n")
    sys.stdout.flush()
    spans["write"] = (perf() - t0) * 1e3
    result["stdout_bytes"] = len((text + "\n").encode("utf-8"))
    return result


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf()
        fn()
        times.append((perf() - t0) * 1e3)
    return statistics.median(times)


def count(argv, scale):
    from gutheory import algorithms, cli, decisions

    args = cli.build_parser().parse_args(argv)
    document = cli._load_document(args.input)
    out = {}

    def counted(module, name):
        original = getattr(module, name)
        calls = [0]

        def wrapper(*a, **kw):
            calls[0] += 1
            return original(*a, **kw)

        setattr(module, name, wrapper)
        return original, calls

    if args.command == "decide":
        problem = decisions.DecisionProblem.from_dict(
            document, attitude=args.attitude, tolerance=args.tolerance
        )
        # A part of the traced "kernel" span, timed here on its own so that
        # timing it twice does not lengthen the traced child.
        report = decisions.decide(problem)
        out["relation_matrix_ms"] = _median_ms(
            lambda: decisions.relation_matrix(report.geus, problem.tolerance), 3
        )
        original, calls = counted(decisions, "compare")
        try:
            decisions.decide(problem)
        finally:
            decisions.compare = original
        out["compare_calls"] = calls[0]
        for size, path in scale.items():
            small = decisions.DecisionProblem.from_dict(cli._load_document(path), tolerance=args.tolerance)
            out[f"decide_ms.{size}"] = _median_ms(lambda: decisions.decide(small), 5)

    elif args.command == "cluster":
        delta = args.delta if args.delta is not None else float(document["delta"])
        original, calls = counted(algorithms, "delta_neighbour")
        try:
            classes = algorithms.classify(document["items"], delta)
        finally:
            algorithms.delta_neighbour = original
        out["neighbour_tests"] = calls[0]
        out["classes"] = len(classes)
        out["placed_per_test"] = len(document["items"]) / max(calls[0], 1)
        for size, path in scale.items():
            small = cli._load_document(path)
            out[f"classify_ms.{size}"] = _median_ms(
                lambda: algorithms.classify(small["items"], small["delta"]), 3
            )

    elif args.command == "generate":
        for size, path in scale.items():
            small = cli._load_document(path)
            specs = [algorithms.DistributionSpec.from_dict(d) for d in small["distributions"]]
            out[f"generate_sequence_ms.{size}"] = _median_ms(
                lambda: algorithms.generate_sequence(specs, small["k"], small["seed"]), 3
            )
    return out


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if spec["mode"] == "trace":
        result = trace(spec["argv"])
    else:
        result = count(spec["argv"], spec.get("scale", {}))
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
