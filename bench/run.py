"""Benchmark of the ``gut`` command line tool, end to end and layer by layer.

Usage::

    python3 bench/run.py [--workload small-docs|large-narrow|large-wide|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from a source tree: the program is started as ``python -m gutheory``
with ``src`` on ``PYTHONPATH``.  Only the standard library is used.

For the chosen workload the benchmark writes its documents, runs each once
untimed as a warm-up, then spawns the real CLI in a closed loop (one
client, one invocation in flight) for ``--seconds``, visiting the four
documents in a seeded order each round.  Every output is checked; see
``workloads.py``.  With ``--trace 0`` it reports the end-to-end metrics:
per subcommand the median wall time of the run from spawn to exit with
stdout read (``<cmd>_ms``) and the median peak RSS of the child
(``<cmd>_rss_mb``), the invocations completed per second of the timed loop
(``docs_per_s``) and the median of three set-ups, the first before the
timed loop and the others spread over it (``setup_s``).  ``--trace 1`` runs the same timed
loop with a bare ``python -c pass`` interleaved, then a separate traced
run per document (``trace_child.py`` and ``-X importtime``) and reports the
per-layer metrics.  Every measured child is started by ``spawner.py``, a
small process of its own, so that the benchmark's memory never shows in a
child's peak RSS.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with
its unit and sample count, and a record of the environment.  The exit code
is 1 when any output check fails and 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "trace_child.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
PYTHON = sys.executable

SETUP_REPEATS = 3  # setup_s is the median of these: one before the timed loop, the rest spread over it
TRACE_REPEATS = 3  # traced children and -X importtime runs per document
TIMEOUT_S = 30.0  # one invocation; a timeout counts as a failure and ends the loop

END_TO_END_UNITS = {f"{c}_ms": "ms" for c in workloads.COMMANDS}
END_TO_END_UNITS.update({f"{c}_rss_mb": "MB" for c in workloads.COMMANDS})
END_TO_END_UNITS.update({"docs_per_s": "1/s", "setup_s": "s"})

# Per subcommand: the kernel's layer and name, the layer of its "build" step.
KERNELS = {
    "decide": ("decisions", "decide"),
    "cluster": ("algorithms", "classify"),
    "generate": ("algorithms", "generate_sequence"),
    "validate": ("spaces", "axiom_violations"),
}
BUILDS = {"decide": "decisions", "generate": "algorithms"}
COUNTS = {
    "decide": {"compare_calls": "count"},
    "cluster": {"neighbour_tests": "count", "classes": "count", "placed_per_test": "ratio"},
}
SCALES = {"decide": ("m10", "m100"), "cluster": ("n1000",), "generate": ("k10000",)}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"interp.bare_ms": "ms"}
    for c in workloads.COMMANDS:
        layer, kernel = KERNELS[c]
        units.update(
            {
                f"{c}.import.total_ms": "ms",
                f"{c}.import.numpy_ms": "ms",
                f"{c}.import.jsonschema_ms": "ms",
                f"{c}.import.gutheory_ms": "ms",
                f"{c}.import.modules": "count",
                f"{c}.proc.rss_after_import_mb": "MB",
                f"{c}.cli.import_ms": "ms",
                f"{c}.cli.argparse_ms": "ms",
                f"{c}.cli.load_ms": "ms",
                f"{c}.schemas.validate_ms": "ms",
            }
        )
        if c in BUILDS:
            units[f"{c}.{BUILDS[c]}.build_ms"] = "ms"
        units[f"{c}.{layer}.{kernel}_ms"] = "ms"
        if c == "decide":
            units["decide.decisions.relation_matrix_ms"] = "ms"
        units.update({f"{c}.{layer}.{name}": unit for name, unit in COUNTS.get(c, {}).items()})
        units.update({f"{c}.{layer}.{kernel}_ms.{size}": "ms" for size in SCALES.get(c, ())})
        units.update(
            {
                f"{c}.cli.render_ms": "ms",
                f"{c}.cli.write_ms": "ms",
                f"{c}.cli.stdout_bytes": "count",
                f"{c}.trace.overhead_ms": "ms",
            }
        )
    return units


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Run:
    wall_ms: float
    exit_code: int
    rss_mb: float
    timed_out: bool
    sha256: str
    stdout_path: Path
    stderr_path: Path


def child_env() -> dict[str, str]:
    """The caller's environment, minus variables that change how Python runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Client of ``spawner.py``, which starts, times and measures each child."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [PYTHON, "-I", "-S", str(SPAWNER)], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, name: str) -> Run:
        """Run ``argv`` to exit; its output goes to ``cwd/<name>.stdout`` and ``.stderr``."""
        out, err = cwd / f"{name}.stdout", cwd / f"{name}.stderr"
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(out), "stderr": str(err),
                   "timeout": TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the spawner process ended with code {self.proc.wait()}")
        r = json.loads(reply)
        return Run(r["wall_ms"], r["exit_code"], r["rss_mb"], r["timed_out"], r["sha256"], out, err)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def gut(inv: workloads.Invocation, *python_flags: str) -> list[str]:
    return [PYTHON, *python_flags, "-m", "gutheory", *inv.argv]


def parse_importtime(stderr: bytes) -> dict[str, float]:
    """Totals from ``-X importtime``: all imports, numpy's and jsonschema's
    cumulative times, gutheory's own module bodies, and the module count."""
    total = gutheory = 0.0
    cumulative: dict[str, float] = {}
    modules = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        modules += 1
        total += self_us
        cumulative.setdefault(name, cum_us)
        if name == "gutheory" or name.startswith("gutheory."):
            gutheory += self_us
    return {
        "total_ms": total / 1e3,
        "numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "jsonschema_ms": cumulative.get("jsonschema", 0) / 1e3,
        "gutheory_ms": gutheory / 1e3,
        "modules": modules,
    }


# ---------------------------------------------------------------------------
# One workload


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.lines: list[str] = []  # human-readable report
        self.metrics: dict[str, tuple[float, str]] = {}
        self.valid: dict[str, bool] = {}  # subcommand -> its reference output passed every check

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        self.lines.append(f"{name:<48} {value:>12.6g} {unit:<5} {note}".rstrip())

    def timing(self, name: str, values: list[float], unit: str) -> None:
        """Report the median of ``values``; the count, extremes and quartiles go in the note."""
        note = f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            note += f" q1={q1:.6g} q3={q3:.6g}"
        self.metric(name, statistics.median(values), unit, note)

    def run(self) -> None:
        self.spawner = Spawner()
        try:
            self.measure()
        finally:
            self.spawner.close()

    def measure(self) -> None:
        invocations, references, first = self.set_up(self.work)
        for inv, ref in zip(invocations, references):
            problems = workloads.output_problems(inv, ref.stdout_path.read_bytes(), ref.exit_code)
            if ref.timed_out:
                problems.append(f"timed out after {TIMEOUT_S:g} s")
            self.problems += [f"{inv.command}: {p}" for p in problems]
            self.valid[inv.command] = not problems
        samples, bare, loop_s, setup = self.timed_loop(invocations, references)
        if not self.trace:
            for inv in invocations:
                runs = samples[inv.command]
                self.timing(f"{inv.command}_ms", [r.wall_ms for r in runs], "ms")
                self.timing(f"{inv.command}_rss_mb", [r.rss_mb for r in runs], "MB")
            done = sum(len(runs) for runs in samples.values())
            self.metric("docs_per_s", done / loop_s, "1/s", f"{done} invocations in {loop_s:.2f} s")
            self.timing("setup_s", [first, *setup], "s")
        else:
            self.traced(invocations, references, bare)
        rate = self.failed / max(self.attempted, 1)
        self.lines.append(f"{'error_rate':<48} {rate:>12.6g} {'ratio':<5} "
                          f"failed={self.failed} attempted={self.attempted}")

    def set_up(self, where: Path):
        """Write the documents into ``where`` and run each once as a warm-up.
        Returns the invocations, the warm-up runs and the seconds taken; the
        first set-up's warm-up outputs are the references every later run
        must equal."""
        shutil.rmtree(where, ignore_errors=True)
        t0 = time.perf_counter()
        invocations = workloads.build(self.workload, self.seed, where)
        warm = [self.spawner.run(gut(inv), where, f"ref-{inv.command}") for inv in invocations]
        return invocations, warm, time.perf_counter() - t0

    def set_up_again(self, references) -> float:
        """Set up once more, in a directory of its own; returns the seconds taken."""
        where = self.work / "setup"
        invocations, warm, seconds = self.set_up(where)
        for inv, ref, run in zip(invocations, references, warm):
            if run.timed_out or run.exit_code != ref.exit_code or run.sha256 != ref.sha256:
                self.problems.append(f"{inv.command}: a repeated set-up disagrees with the first")
        shutil.rmtree(where, ignore_errors=True)
        return seconds

    def timed_loop(self, invocations, references):
        """Closed loop, one invocation in flight, until the time is up.

        Each round visits every document once in a seeded order; the first
        round always completes, so every subcommand has a sample.  Without
        tracing, the set-ups after the first are spread evenly over the
        loop, between rounds, so that their median sees the host as the
        invocations do; their time does not count against the loop's.
        Returns the samples, the bare-interpreter probes, the seconds the
        loop ran (set-ups excluded) and the set-up times.
        """
        order = random.Random(f"{self.workload}/order/{self.seed}")
        samples: dict[str, list[Run]] = {inv.command: [] for inv in invocations}
        bare: list[float] = []
        setup_at = [] if self.trace else [self.seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
        setup: list[float] = []
        t_start = time.perf_counter()
        stop = False
        while not stop:
            pairs = list(zip(invocations, references))
            order.shuffle(pairs)
            for inv, ref in pairs:
                if stop or (samples[inv.command] and time.perf_counter() - t_start >= self.seconds):
                    stop = True
                    break
                run = self.spawner.run(gut(inv), self.work, "timed")
                samples[inv.command].append(run)
                self.attempted += 1
                if run.timed_out or not self.valid[inv.command] or run.exit_code != ref.exit_code \
                        or run.sha256 != ref.sha256:
                    self.failed += 1
                    self.problems.append(f"{inv.command}: timed run disagrees with its reference")
                    stop = stop or run.timed_out
            if self.trace and not stop:
                bare.append(self.spawner.run([PYTHON, "-c", "pass"], self.work, "bare").wall_ms)
            if setup_at and not stop and time.perf_counter() - t_start >= setup_at[0]:
                setup_at.pop(0)
                t0 = time.perf_counter()
                setup.append(self.set_up_again(references))
                t_start += time.perf_counter() - t0
            stop = stop or time.perf_counter() - t_start >= self.seconds
        loop_s = time.perf_counter() - t_start
        setup += [self.set_up_again(references) for _ in setup_at]
        return samples, bare, loop_s, setup

    def traced(self, invocations, references, bare) -> None:
        """Per-layer metrics: -X importtime of the real invocation, traced
        children timing each call, and an untimed counting pass.  Each
        traced child follows an untraced invocation of the same document, so
        both see the host at the same speed."""
        self.timing("interp.bare_ms", bare, "ms")
        scale = workloads.scale_docs(self.workload, self.seed, self.work)
        for inv, ref in zip(invocations, references):
            try:
                self.traced_document(inv, ref, bare, scale.get(inv.command, {}))
            except RuntimeError as exc:
                self.attempted += 1
                self.failed += 1
                self.problems.append(str(exc))

    def traced_document(self, inv, ref, bare, scale) -> None:
        c = inv.command
        layer, kernel = KERNELS[c]

        imports = []
        for _ in range(TRACE_REPEATS):
            run = self.spawner.run(gut(inv, "-X", "importtime"), self.work, "importtime")
            self.attempted += 1
            if run.timed_out or run.exit_code != ref.exit_code:
                self.failed += 1
                self.problems.append(f"{c}: -X importtime run exited {run.exit_code}")
            imports.append(parse_importtime(run.stderr_path.read_bytes()))
        for key in ("total_ms", "numpy_ms", "jsonschema_ms", "gutheory_ms", "modules"):
            self.timing(f"{c}.import.{key}", [i[key] for i in imports],
                        "count" if key == "modules" else "ms")

        traces, walls, plain = [], [], []
        for _ in range(TRACE_REPEATS):
            run = self.spawner.run(gut(inv), self.work, "untraced")
            self.attempted += 1
            if run.timed_out or run.exit_code != ref.exit_code or run.sha256 != ref.sha256:
                self.failed += 1
                self.problems.append(f"{c}: untraced run disagrees with its reference")
            plain.append(run.wall_ms)
            result, run = self.child(inv, "trace", {})
            if run.sha256 != ref.sha256:
                self.failed += 1
                self.problems.append(f"{c}: the traced calls do not reproduce the CLI's stdout")
            traces.append(result)
            walls.append(run.wall_ms)
        spans = {name: [t["spans"][name] for t in traces] for name in traces[0]["spans"]}
        self.timing(f"{c}.proc.rss_after_import_mb", [t["rss_after_import_mb"] for t in traces], "MB")
        for span, metric in (("import", "cli.import_ms"), ("argparse", "cli.argparse_ms"),
                             ("load", "cli.load_ms"), ("schema", "schemas.validate_ms")):
            self.timing(f"{c}.{metric}", spans[span], "ms")
        if c in BUILDS:
            self.timing(f"{c}.{BUILDS[c]}.build_ms", spans["build"], "ms")
        self.timing(f"{c}.{layer}.{kernel}_ms", spans["kernel"], "ms")

        counts, _ = self.child(inv, "count", scale)
        if c == "decide":
            self.metric("decide.decisions.relation_matrix_ms", counts["relation_matrix_ms"], "ms")
        for name, unit in COUNTS.get(c, {}).items():
            self.metric(f"{c}.{layer}.{name}", counts[name], unit)
        for size in SCALES.get(c, ()):
            self.metric(f"{c}.{layer}.{kernel}_ms.{size}", counts[f"{kernel}_ms.{size}"], "ms")

        self.timing(f"{c}.cli.render_ms", spans["render"], "ms")
        self.timing(f"{c}.cli.write_ms", spans["write"], "ms")
        self.metric(f"{c}.cli.stdout_bytes", traces[0]["stdout_bytes"], "count")
        phases = statistics.median(sum(t["spans"].values()) for t in traces)
        untraced, traced = statistics.median(plain), statistics.median(walls)
        gap = untraced - statistics.median(bare) - phases
        # Both differences can come out either side of zero; the metric
        # is the size of the overhead, the signs are in the note.
        self.metric(f"{c}.trace.overhead_ms", abs(traced - untraced), "ms",
                    f"traced {traced:.1f} - untraced {untraced:.1f} = {traced - untraced:+.1f}; "
                    f"gap: untraced - interp.bare_ms - phases {phases:.1f} = {gap:+.1f}")

    def child(self, inv, mode: str, scale: dict[str, str]):
        spec_path = self.work / f"trace-{inv.command}-{mode}.json"
        out_path = self.work / f"trace-{inv.command}-{mode}.out.json"
        spec = {"mode": mode, "argv": inv.argv, "out": str(out_path), "scale": scale}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        run = self.spawner.run([PYTHON, str(CHILD), str(spec_path)], self.work, f"trace-{mode}")
        if run.timed_out or run.exit_code != 0:
            stderr = run.stderr_path.read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"{inv.command}: traced child ({mode}) exited {run.exit_code}: {stderr[-2000:]}")
        self.attempted += 1
        return json.loads(out_path.read_text(encoding="utf-8")), run


# ---------------------------------------------------------------------------
# Entry point


def environment(load_start: tuple[float, ...], args) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "gutheory").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gutheory" / "__main__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'gutheory'} is missing", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    expected = per_layer_units() if args.trace else END_TO_END_UNITS
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    benches = []
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        bench = Bench(name, args.seed, args.seconds, bool(args.trace), work)
        try:
            bench.run()
        except RuntimeError as exc:  # the spawner process died
            bench.problems.append(str(exc))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = sorted(set(expected) - set(bench.metrics))
        if missing:
            bench.problems.append(f"metrics not measured: {missing}")
        print(f"== {name}")
        print("\n".join(bench.lines))
        for problem in bench.problems:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
        benches.append(bench)
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass

    print("env " + json.dumps(environment(load_start, args)))
    metrics = {}
    for bench in benches:
        prefix = "" if len(benches) == 1 else f"{bench.workload}/"
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in bench.metrics.items() if k in expected})
    correct = not any(b.problems for b in benches)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(b.attempted for b in benches),
        "failed": sum(b.failed for b in benches),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
