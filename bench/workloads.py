"""Workload documents for the ``gut`` benchmark and the checks on their outputs.

Each workload runs all four subcommands on one document each.  Documents
are made from the workload seed with ``random.Random``, so one seed always
gives the same files; the program only ever sees the written files.

* ``small-docs``   the README's four example commands, verbatim.  Startup
  dominates; the kernels take under a millisecond.  The seed only shuffles
  the order of the invocations.
* ``large-narrow`` sizes at which the kernels dominate, shaped so that
  each planned fast path applies: a stage-1 winner that makes the full
  relation matrix unnecessary, many small classes at delta 0.01, one
  distribution family, a valid 64-atom space.
* ``large-wide``   the same sizes with each layer used the other way: no
  dominant scheme and the full matrix printed as JSON, a few large classes
  at delta 0.3, mixed families, an invalid space in strict mode.

The checks do not use the program: strict JSON parsing, the partition,
pivot and membership rules for ``cluster``, ``k`` finite elements for ``generate``, the
designed selection stage for ``decide`` and the designed exit code for
``validate``.  On top of these, stdout is compared with expected bytes:
the README transcriptions for ``small-docs`` and recorded digests for the
default seed of the large workloads.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 0
WORKLOADS = ("small-docs", "large-narrow", "large-wide")
COMMANDS = ("decide", "cluster", "generate", "validate")

SCHEMES, NATURES = 400, 20
ITEMS = 4000
K = 100_000
ATOMS = 64  # gutheory.spaces.MAX_ATOMS

# Document shape per workload.  The large workloads use it at full size;
# the traced run also uses it at the smaller kernel scaling sizes.
PROFILES = {
    "small-docs": {"decide": "wide", "delta": 0.05, "families": ("normal", "normal")},
    "large-narrow": {"decide": "narrow", "delta": 0.01, "families": ("normal",) * 3},
    "large-wide": {
        "decide": "wide",
        "delta": 0.3,
        "families": ("normal", "uniform", "exponential"),
    },
}


@dataclass
class Invocation:
    """One document and the ``gut`` arguments that run it."""

    command: str
    argv: list[str]
    exit_code: int
    fmt: str
    check: Callable[[bytes], list[str]]
    expected: bytes | None = None  # README transcription, when there is one
    digest: str | None = None  # SHA-256 of the recorded stdout for this seed


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def strict_json(stdout: bytes):
    """Parse stdout as standard JSON; NaN and Infinity are refused."""
    return json.loads(stdout.decode("utf-8"), parse_constant=_reject_constant)


def _checked(check: Callable[[bytes], list[str]]) -> Callable[[bytes], list[str]]:
    def run(stdout: bytes) -> list[str]:
        try:
            return check(stdout)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return run


def decide_check(fmt: str, names: list[str], rationale: str, winner: str | None):
    @_checked
    def check(stdout: bytes) -> list[str]:
        if fmt == "json":
            report = strict_json(stdout)
            selected, got = report["selected"], report["rationale"]
            m = len(names)
            if report["schemes"] != names or len(report["geus"]) != m:
                return ["report does not list the document's schemes"]
            if len(report["relations"]) != m or any(len(r) != m for r in report["relations"]):
                return [f"relation matrix is not {m}x{m}"]
        else:
            line = [ln for ln in stdout.decode("utf-8").splitlines() if ln.startswith("selected: ")]
            selected, _, got = line[-1][len("selected: "):].partition(" ")
            got = got.strip("()")
        problems = []
        if selected not in names:
            problems.append(f"selected {selected!r} is not a listed scheme")
        if got != rationale:
            problems.append(f"rationale {got!r}, designed {rationale!r}")
        if winner is not None and selected != winner:
            problems.append(f"selected {selected!r}, designed winner {winner!r}")
        return problems

    return check


def cluster_check(items: list[list[float]], delta: float):
    """The classes partition the indices, pivots come in input order at the
    head of their class, and each class holds exactly the items not placed
    before it that lie within delta of its pivot on both endpoints."""
    by_left = sorted(range(len(items)), key=lambda i: items[i][0])
    lefts = [items[i][0] for i in by_left]

    @_checked
    def check(stdout: bytes) -> list[str]:
        report = strict_json(stdout)
        classes = report["classes"]
        problems = []
        if report["delta"] != delta:
            problems.append(f"delta {report['delta']!r}, expected {delta!r}")
        if sorted(i for c in classes for i in c) != list(range(len(items))):
            return problems + ["classes do not partition the item indices"]
        pivots = [c[0] for c in classes]
        if pivots != sorted(set(pivots)) or any(c != sorted(c) for c in classes):
            return problems + ["pivots are not in input order at the head of their class"]
        placed: set[int] = set()
        for c in classes:
            pl, pr = items[c[0]]
            # The window is widened a little; the exact test is the one below.
            lo = bisect.bisect_left(lefts, pl - delta - 1e-9)
            hi = bisect.bisect_right(lefts, pl + delta + 1e-9)
            members = sorted(
                i for i in by_left[lo:hi]
                if i not in placed and abs(items[i][0] - pl) <= delta and abs(items[i][1] - pr) <= delta
            )
            if members != c:
                return problems + [f"class of pivot {c[0]} is not the unplaced items within delta of it"]
            placed.update(c)
        return problems

    return check


def generate_check(k: int, seed: int):
    @_checked
    def check(stdout: bytes) -> list[str]:
        report = strict_json(stdout)
        elements = report["elements"]
        problems = []
        if report["k"] != k or report["seed"] != seed:
            problems.append("k or seed not echoed")
        if len(elements) != k:
            problems.append(f"{len(elements)} elements, expected {k}")
        if not all(type(x) in (int, float) and math.isfinite(x) for x in elements):
            problems.append("non-finite or non-numeric element")
        return problems

    return check


def validate_check(fmt: str, atoms: int, valid: bool):
    @_checked
    def check(stdout: bytes) -> list[str]:
        if fmt == "json":
            report = strict_json(stdout)
            got, n, violations = report["valid"], report["atoms"], report["violations"]
        else:
            lines = dict(ln.split(": ", 1) for ln in stdout.decode("utf-8").splitlines()[:3])
            got, n, violations = lines["valid"] == "yes", int(lines["atoms"]), None
        problems = []
        if got != valid or n != atoms:
            problems.append(f"valid={got} atoms={n}, designed valid={valid} atoms={atoms}")
        if violations is not None and bool(violations) == valid:
            problems.append("violations disagree with the verdict")
        return problems

    return check


def output_problems(inv: Invocation, stdout: bytes, exit_code: int) -> list[str]:
    """Every check on one output: designed exit code, structure, expected bytes."""
    problems = []
    if exit_code != inv.exit_code:
        problems.append(f"exit code {exit_code}, designed {inv.exit_code}")
    problems += inv.check(stdout)
    if inv.expected is not None:
        # README examples are hand-written: JSON ones are compared by value,
        # because the README lays out short arrays on one line.
        if inv.fmt == "json":
            try:
                same = strict_json(stdout) == strict_json(inv.expected)
            except ValueError:
                same = False
        else:
            same = stdout == inv.expected
        if not same:
            problems.append("stdout differs from the README example")
    if inv.digest is not None and hashlib.sha256(stdout).hexdigest() != inv.digest:
        problems.append("stdout differs from the recorded bytes for this seed")
    return problems


# ---------------------------------------------------------------------------
# Document generators.


def decision_doc(rng: random.Random, m: int, n: int, shape: str) -> tuple[dict, str, str | None]:
    """A decision problem, its designed rationale and (stage 1) winner.

    ``narrow``: every nature width is at most its left endpoint and the
    winner's payoffs are at least nine times every rival's, so its GEU is
    strongly greater than every other and stage 1 decides.
    ``wide``: the scheme with the largest GEU left endpoint is not the one
    with the largest right endpoint, so nobody dominates and the averse
    attitude picks at stage 3.
    """
    natures = []
    for j in range(n):
        left = rng.uniform(0.01, 0.04)
        width = rng.uniform(0.0, left) if shape == "narrow" else rng.uniform(0.01, 0.05)
        natures.append({"name": f"N{j + 1}", "gum": [round(left, 6), round(left + width, 6)]})
    if shape == "narrow":
        win = rng.randrange(m)
        schemes = [
            {
                "name": f"S{i + 1}",
                "payoffs": [rng.randint(900, 1000) if i == win else rng.randint(0, 100) for _ in range(n)],
            }
            for i in range(m)
        ]
        return {"natures": natures, "schemes": schemes}, "StronglyAdvantage", f"S{win + 1}"
    while True:
        rows = [[rng.randint(0, 1000) for _ in range(n)] for _ in range(m)]
        lefts = [math.fsum(p * g["gum"][0] for p, g in zip(r, natures)) for r in rows]
        rights = [math.fsum(p * g["gum"][1] for p, g in zip(r, natures)) for r in rows]
        top = max(range(m), key=lefts.__getitem__)
        if all(lefts[i] < lefts[top] - 1e-6 for i in range(m) if i != top) and max(rights) > rights[top] + 1e-6:
            break
    schemes = [{"name": f"S{i + 1}", "payoffs": r} for i, r in enumerate(rows)]
    doc = {"natures": natures, "schemes": schemes, "attitude": "averse"}
    return doc, "RiskAverseMinGud", None


def cluster_doc(rng: random.Random, n: int, delta: float) -> dict:
    items = []
    for _ in range(n):
        left = round(rng.uniform(0.0, 1.0), 6)
        items.append([left, round(left + rng.uniform(0.0, 0.5), 6)])
    return {"delta": delta, "items": items}


def generate_doc(rng: random.Random, k: int, families: tuple[str, ...]) -> dict:
    specs = []
    for family in families:
        if family == "exponential":
            specs.append({"family": family, "mu": round(rng.uniform(0.5, 5.0), 6)})
        else:
            specs.append(
                {
                    "family": family,
                    "mu": round(rng.uniform(-10.0, 10.0), 6),
                    "sigma2": round(rng.uniform(0.5, 4.0), 6),
                }
            )
    return {"distributions": specs, "k": k, "seed": rng.randrange(2**32)}


def space_doc(rng: random.Random, atoms: int) -> dict:
    """Left endpoints sum to at most 0.9 and right ones to at least 1.1:
    coherent, and never strict."""
    weights = [rng.uniform(0.5, 1.5) for _ in range(atoms)]
    total = math.fsum(weights)
    gum = {}
    for i, w in enumerate(weights):
        p = w / total
        gum[f"a{i:02d}"] = [round(p * rng.uniform(0.5, 0.9), 6), round(p * rng.uniform(1.1, 1.5), 6)]
    return {"atoms": list(gum), "gum": gum, "mode": "coherent"}


# ---------------------------------------------------------------------------
# The README examples, verbatim.

README_PROBLEM = """{
  "natures": [
    {"name": "Status 1", "gum": [0.1, 0.2]},
    {"name": "Status 2", "gum": [0.2, 0.3]},
    {"name": "Status 3", "gum": [0.5, 0.7]}
  ],
  "schemes": [
    {"name": "S1", "payoffs": [100, 80, 90]},
    {"name": "S2", "payoffs": [120, 130, 110]},
    {"name": "S3", "payoffs": [150, 150, 120]},
    {"name": "S4", "payoffs": [160, 90, 140]},
    {"name": "S5", "payoffs": [0, 530, 0]}
  ],
  "attitude": "averse"
}
"""
README_CLUSTER = '{"items": [[0.10, 0.20], [0.12, 0.21], [0.50, 0.70]], "delta": 0.05}'
README_GENERATE = """{"distributions": [{"family": "normal", "mu": 0, "sigma2": 1},
                         {"family": "normal", "mu": 10, "sigma2": 1}], "k": 4}"""
# The calm/windy/storm space of the README's library tour.
README_SPACE = {
    "atoms": ["calm", "windy", "storm"],
    "gum": {"calm": [0.5, 0.7], "windy": [0.2, 0.3], "storm": [0.1, 0.2]},
}


def _readme(command: str) -> bytes:
    return (EXPECTED / "readme" / f"{command}.txt").read_bytes()


def _write(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return path.name


def small_docs(workdir: Path) -> list[Invocation]:
    problem = _write(workdir / "problem.json", README_PROBLEM)
    space = _write(workdir / "space.json", README_SPACE)
    readme_items = json.loads(README_CLUSTER)["items"]
    names = [s["name"] for s in json.loads(README_PROBLEM)["schemes"]]
    return [
        Invocation("decide", ["decide", "--input", problem], 0, "table",
                   decide_check("table", names, "RiskAverseMinGud", None), _readme("decide")),
        Invocation("cluster", ["cluster", "--input", README_CLUSTER, "--format", "json"], 0, "json",
                   cluster_check(readme_items, 0.05), _readme("cluster")),
        Invocation("generate", ["generate", "--input", README_GENERATE, "--seed", "7", "--format", "json"],
                   0, "json", generate_check(4, 7), _readme("generate")),
        Invocation("validate", ["validate", "--input", space, "--mode", "strict"], 1, "table",
                   validate_check("table", 3, False), _readme("validate")),
    ]


def large_docs(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    profile = PROFILES[workload]
    narrow = profile["decide"] == "narrow"

    def rng(command: str) -> random.Random:
        return random.Random(f"{workload}/{command}/{seed}")

    doc, rationale, winner = decision_doc(rng("decide"), SCHEMES, NATURES, profile["decide"])
    names = [s["name"] for s in doc["schemes"]]
    decide_fmt = "table" if narrow else "json"
    decide = Invocation(
        "decide", ["decide", "--input", _write(workdir / "decide.json", doc), "--format", decide_fmt],
        0, decide_fmt, decide_check(decide_fmt, names, rationale, winner),
    )

    doc = cluster_doc(rng("cluster"), ITEMS, profile["delta"])
    cluster = Invocation(
        "cluster", ["cluster", "--input", _write(workdir / "cluster.json", doc), "--format", "json"],
        0, "json", cluster_check(doc["items"], doc["delta"]),
    )

    doc = generate_doc(rng("generate"), K, profile["families"])
    generate = Invocation(
        "generate", ["generate", "--input", _write(workdir / "generate.json", doc), "--format", "json"],
        0, "json", generate_check(K, doc["seed"]),
    )

    doc = space_doc(rng("validate"), ATOMS)
    argv = ["validate", "--input", _write(workdir / "validate.json", doc)]
    if narrow:
        validate = Invocation("validate", argv, 0, "table", validate_check("table", ATOMS, True))
    else:
        validate = Invocation("validate", argv + ["--mode", "strict", "--format", "json"], 1, "json",
                              validate_check("json", ATOMS, False))
    return [decide, cluster, generate, validate]


def build(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the workload's documents into ``workdir``; return its invocations."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "small-docs":
        invocations = small_docs(workdir)
    else:
        invocations = large_docs(workload, seed, workdir)
    if workload == "small-docs" or seed == DEFAULT_SEED:
        digests = json.loads((EXPECTED / "digests.json").read_text(encoding="utf-8"))
        for inv in invocations:
            inv.digest = digests.get(workload, {}).get(inv.command)
    return invocations


def scale_docs(workload: str, seed: int, workdir: Path) -> dict[str, dict[str, str]]:
    """Smaller documents of the workload's shape for the kernel scaling points."""
    profile = PROFILES[workload]
    rng = random.Random(f"{workload}/scale/{seed}")
    docs = {
        "decide": {
            f"m{m}": decision_doc(rng, m, NATURES, profile["decide"])[0] for m in (10, 100)
        },
        "cluster": {"n1000": cluster_doc(rng, 1000, profile["delta"])},
        "generate": {"k10000": generate_doc(rng, 10_000, profile["families"])},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    return {
        command: {size: str(workdir / _write(workdir / f"scale-{command}-{size}.json", doc))
                  for size, doc in sized.items()}
        for command, sized in docs.items()
    }
