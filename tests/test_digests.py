"""Stdout digests over a grid of seeds and shapes.

Each case hashes the ``cli.main()`` stdout of every seed in ``SEEDS`` (or
``DOC_SEEDS``), in order, into one SHA-256.  The ``generate`` digests were recorded before the
sampler was vectorised, the ``decide``, ``cluster`` and ``validate`` ones
before the JSON writer replaced ``json.dumps`` (the stage-2 ``weak`` ones
before ``decide`` stopped building the relation matrix), and the table-format ones
of ``cluster``, ``generate`` and ``validate`` before stdout was written as
UTF-8 whatever the locale; a change to the draw order, the arithmetic, the
render or the write shows here as a digest mismatch.
"""

import functools
import hashlib
import json
import random

import pytest

from gutheory import decisions
from gutheory.cli import main

SEEDS = range(100)
K = 40

NORMALS = [
    {"family": "normal", "mu": -3.5, "sigma2": 0.25},
    {"family": "normal", "mu": 0, "sigma2": 1},
    {"family": "normal", "mu": 1e6, "sigma2": 4e10},
]
UNIFORMS = [
    {"family": "uniform", "mu": 0.5, "sigma2": 1 / 12},
    {"family": "uniform", "mu": -20, "sigma2": 3},
    {"family": "uniform", "mu": 1e-3, "sigma2": 1e-9},
]
EXPONENTIALS = [
    {"family": "exponential", "mu": 1},
    {"family": "exponential", "mu": 0.125},
    {"family": "exponential", "mu": 250, "sigma2": 62500},
]

GENERATE_DIGESTS = {
    "normal-1": "2f4ac95bb8a9ee7e337fed35f2fb3d3116a4a67ad2428f1e7d547f98426cdb0a",
    "normal-3": "b38c0aa9a5cab89a9588db31712b36b4162dfe3da69d986b2ffc1a1d4696b91d",
    "uniform-1": "77998c95ff2cdd833ae03fa51edc289f082360af9b158027020e28c2afb171a6",
    "uniform-3": "8e78fd18687a9f7864545f7b5bc92cbd3391811ca434a8c8edb73d4b6a92eb45",
    "exponential-1": "9f2dac8c5eeb62e84969003502322bf780a4fe95da91d5d6e272c0284b660120",
    "exponential-3": "bb7fd6f0c9135c97288bf487b6f19dd45d71439e85ff30e79a17bf4a66a04be4",
    "mixed-3": "b45ed1806c98810a9e8f79c85bd0eaa5e411309f706c0a75801825ac35add540",
}

GENERATE_CASES = {
    "normal-1": NORMALS[1:2],
    "normal-3": NORMALS,
    "uniform-1": UNIFORMS[:1],
    "uniform-3": UNIFORMS,
    "exponential-1": EXPONENTIALS[:1],
    "exponential-3": EXPONENTIALS,
    "mixed-3": [NORMALS[1], UNIFORMS[1], EXPONENTIALS[2]],
}


def generate_digest(capsys, distributions, fmt="json") -> str:
    digest = hashlib.sha256()
    text = json.dumps({"k": K, "distributions": distributions})
    for seed in SEEDS:
        code = main(["generate", "--input", text, "--seed", str(seed), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        digest.update(captured.out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_stdout_digest(capsys, case):
    assert generate_digest(capsys, GENERATE_CASES[case]) == GENERATE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_table_digest(capsys, case):
    digest = generate_digest(capsys, GENERATE_CASES[case], "table")
    assert digest == TABLE_DIGESTS[f"generate-{case}"]


# ---------------------------------------------------------------------------
# decide, cluster and validate: documents drawn from ``random.Random(seed)``.

DOC_SEEDS = range(30)


def magnitude(rng: random.Random) -> float:
    """A positive float whose size spans fixed and exponent notation."""
    return rng.uniform(0.1, 1.0) * 10.0 ** rng.randint(-6, 14)


def narrow_problem(rng: random.Random) -> dict:
    """A stage-1 problem: narrow measures and one scheme paying at least
    twice every other payoff, so its GEU lies strictly above the rest."""
    natures = []
    for j in range(rng.randint(2, 5)):
        left = rng.uniform(0.05, 0.2)
        natures.append({"name": f"Status {j + 1}", "gum": [left, left * rng.uniform(1.0, 1.4)]})
    scale = magnitude(rng)
    rows = [[rng.uniform(0.0, scale) for _ in natures] for _ in range(rng.randint(3, 30))]
    top = max(max(row) for row in rows)
    rows.insert(rng.randrange(len(rows) + 1), [top * rng.uniform(2.0, 3.0) for _ in natures])
    schemes = [{"name": f"Scheme é{i}", "payoffs": row} for i, row in enumerate(rows)]
    return {"natures": natures, "schemes": schemes}


def wide_problem(rng: random.Random, tied: bool = False) -> dict:
    """A stage-3 problem: schemes paying only on a narrow status or only on
    a wide one whose GEUs contain the narrow ones, so no scheme dominates.
    ``tied`` repeats the best scheme of each kind under a new name, which
    ties the uncertainty degrees the attitude stage compares."""
    left = rng.uniform(0.2, 0.5)
    natures = [
        {"name": "narrow", "gum": [left, left + rng.uniform(0.0, 0.1)]},
        {"name": "wide", "gum": [0.0, rng.uniform(0.8, 1.0)]},
    ]
    scale = magnitude(rng)
    narrow = [rng.uniform(0.0, scale) for _ in range(rng.randint(2, 15))]
    wide = [rng.uniform(0.0, scale) for _ in range(rng.randint(1, 15))]
    wide[rng.randrange(len(wide))] = max(narrow) * rng.uniform(1.0, 4.0)
    rows = [[x, 0.0] for x in narrow] + [[0.0, y] for y in wide]
    if tied:
        rows += [[max(narrow), 0.0], [0.0, max(wide)]]
    else:
        rng.shuffle(rows)
    schemes = [{"name": f"S{i}\u2264", "payoffs": row} for i, row in enumerate(rows)]
    return {"natures": natures, "schemes": schemes}


def cluster_document(rng: random.Random) -> dict:
    scale = rng.choice([1.0, 1e-4, 1e6])
    items = []
    for _ in range(rng.randint(0, 60)):
        left = rng.uniform(0.0, 3.0) * scale
        items.append([left, left + rng.uniform(0.0, 0.5) * scale])
    return {"delta": 0.1, "items": items}


def coherent_space(rng: random.Random) -> dict:
    """Atom measures around a probability vector, so both sums bracket 1."""
    weights = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 20))]
    total = sum(weights)
    gum = {}
    for i, w in enumerate(weights):
        p = w / total
        spread = rng.uniform(0.0, 0.5)
        gum[f"atom {i}"] = [p * (1.0 - spread), min(1.0, p * (1.0 + spread))]
    return {"atoms": list(gum), "gum": gum}


def invalid_space(rng: random.Random) -> dict:
    document = coherent_space(rng)
    atoms = document["atoms"]
    document["gum"][atoms[0]] = list(reversed(document["gum"][atoms[0]]))
    document["gum"]["stray"] = [0.5, 0.25]
    document["mode"] = "strict"
    return document


def overflowing_space(rng: random.Random) -> dict:
    """Endpoints near the float maximum, so the reported sums are null."""
    atoms = [f"atom {i}" for i in range(rng.randint(2, 5))]
    gum = {a: [rng.uniform(0.9e308, 1.7e308)] * 2 for a in atoms}
    return {"atoms": atoms, "gum": gum}


def weak_problem(rng: random.Random) -> dict:
    """A stage-2 problem: wide measures and one scheme paying at least every
    other payoff on each status, so its GEU dominates every rival's, while
    one rival paying 80 to 90% of it overlaps it, so it is weakly but not
    strongly greater."""
    natures = []
    for j in range(rng.randint(2, 5)):
        left = rng.uniform(0.0, 0.3)
        natures.append({"name": f"Status {j + 1}", "gum": [left, left + rng.uniform(0.2, 0.6)]})
    scale = rng.uniform(0.1, 1.0) * 10.0 ** rng.randint(0, 14)
    top = [rng.uniform(0.5, 1.0) * scale for _ in natures]
    rows = [[p * rng.uniform(0.0, 0.9) for p in top] for _ in range(rng.randint(1, 25))]
    rows.append([p * rng.uniform(0.8, 0.9) for p in top])
    rng.shuffle(rows)
    rows.insert(rng.randrange(len(rows) + 1), top)
    schemes = [{"name": f"W{i}\u00b7", "payoffs": row} for i, row in enumerate(rows)]
    return {"natures": natures, "schemes": schemes}


TIED = functools.partial(wide_problem, tied=True)

DECIDE_CASES = {
    "narrow-json": (narrow_problem, ["--format", "json"]),
    "narrow-table": (narrow_problem, ["--format", "table"]),
    "wide-averse-json": (wide_problem, ["--format", "json", "--attitude", "averse"]),
    "wide-seeking-json": (wide_problem, ["--format", "json", "--attitude", "seeking"]),
    "wide-averse-table": (wide_problem, ["--format", "table", "--attitude", "averse"]),
    "tied-averse-json": (TIED, ["--format", "json", "--attitude", "averse"]),
    "tied-seeking-json": (TIED, ["--format", "json", "--attitude", "seeking"]),
    "tied-seeking-table": (TIED, ["--format", "table", "--attitude", "seeking"]),
    "weak-json": (weak_problem, ["--format", "json"]),
    "weak-table": (weak_problem, ["--format", "table"]),
}

VALIDATE_CASES = {
    "valid": coherent_space,
    "invalid": invalid_space,
    "overflow": overflowing_space,
}

CLUSTER_DELTAS = ("0", "0.01", "0.3", "2.5", "1e-05", "1e300")

GRID_DIGESTS = {
    "cluster-0": "d90d9df264c934fde9a6e2c30e82e5be79bf962848dcf34a613c66c180fddb37",
    "cluster-0.01": "2fcf0c5f0f487a227f8ec625ebff37ceb13da160a75865c1ccdc25d1e8f3f26f",
    "cluster-0.3": "d45b43a4bf9e7d6591b9fcf0854a1080c5c1e2c982c0e712fa51c360421f6a08",
    "cluster-1e-05": "7764797a00939ba720eb10d19eac9399caddd85049937345c5ff8a5463a46bd2",
    "cluster-1e300": "ac8b334682781f3df6a90f319a0290cbfe539d6f8fafc105d639660e4f0d0c34",
    "cluster-2.5": "1ec45cb4ce76da59d98082bfda1e6d0efbda25663a7aaaf9dac3d453c6b96ce7",
    "decide-narrow-json": "58bf4a253eb165e7514d3516a6f9d73d348f3a17e7f4f1a721f8f4985219de55",
    "decide-narrow-table": "c09579e6aa68bff3f5cb2a72d557dade3f1ad109e6dbe2e0ed4bbc5012043a30",
    "decide-tied-averse-json": "51912c1321008f77753f4a4289bb96f1a2146ba5ade32a663aa527f927292860",
    "decide-tied-seeking-json": "616031317b4bd625a1d80c84ad821ea15b1d316804670ee78796fb28695e5395",
    "decide-tied-seeking-table": "f53a42042eae2d7b597f4adfc647eddc7ccd8c24817aa33ace3bbef326dc1a62",
    "decide-weak-json": "b11f4f800af5df0db10abb094cdcb670ad48b162a922ae3207b99910bf4cc4b3",
    "decide-weak-table": "af4f61af0ae09d535ac7d8a1a0f7830d0878e8e5ec25788bbc886b3b28e5b7f6",
    "decide-wide-averse-json": "192c087aae6f4eeaa7d25ea7960d61def97c7143019c78cf8468436d31778858",
    "decide-wide-averse-table": "14258d7857dc0cdb9b09e6f4d7176f1a2f4f09b4c6fedebb7a5cd7de4d27f855",
    "decide-wide-seeking-json": "903078a638fb0f54cbb388db8a8385f461911ad3b1ebee1360477038eb6b2a53",
    "validate-invalid": "5dfe975d9189c4c263f64b6276aceaa8626a8b1d86ea661aebd6918c2a8df77f",
    "validate-overflow": "8ef2926c47332365969ae8104c308184603e9474390762a7aaca9a64dbf71b20",
    "validate-valid": "879997331e31b2656768c240e8ab2c6138ca3c7f6e05a5a9a3812f8eb54f5277",
}


def grid_digest(capsys, build, argv, code, check) -> str:
    """Hash the stdout of ``argv`` over one document per seed in
    ``DOC_SEEDS``; ``check`` asserts what each output must conclude."""
    digest = hashlib.sha256()
    for seed in DOC_SEEDS:
        text = json.dumps(build(random.Random(seed)))
        assert main([*argv, "--input", text]) == code
        out = capsys.readouterr().out
        check(out)
        digest.update(out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(DECIDE_CASES))
def test_decide_stdout_digest(capsys, case):
    build, argv = DECIDE_CASES[case]
    kind = case.split("-")[0]

    def check(out):
        assert ("StronglyAdvantage" in out) == (kind == "narrow")
        assert ("WeaklyAdvantage" in out) == (kind == "weak")
        assert ("tie between" in out) == (kind == "tied")

    digest = grid_digest(capsys, build, ["decide", *argv], 0, check)
    assert digest == GRID_DIGESTS[f"decide-{case}"]


@pytest.mark.parametrize("case", sorted(c for c in DECIDE_CASES if c.endswith("-table")))
def test_decide_table_never_builds_the_matrix(capsys, monkeypatch, case):
    def refuse(*args):
        raise AssertionError("the table read the relation matrix")

    monkeypatch.setattr(decisions, "relation_matrix", refuse)
    build, argv = DECIDE_CASES[case]
    digest = grid_digest(capsys, build, ["decide", *argv], 0, lambda out: None)
    assert digest == GRID_DIGESTS[f"decide-{case}"]


@pytest.mark.parametrize("delta", CLUSTER_DELTAS)
def test_cluster_stdout_digest(capsys, delta):
    def check(out):
        assert json.loads(out)["delta"] == float(delta)

    argv = ["cluster", "--format", "json", "--delta", delta]
    digest = grid_digest(capsys, cluster_document, argv, 0, check)
    assert digest == GRID_DIGESTS[f"cluster-{delta}"]


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_stdout_digest(capsys, case):
    def check(out):
        report = json.loads(out)
        assert report["valid"] == (case == "valid")
        assert (report["sum_left"] is None) == (case == "overflow")

    argv = ["validate", "--format", "json"]
    digest = grid_digest(capsys, VALIDATE_CASES[case], argv, 0 if case == "valid" else 1, check)
    assert digest == GRID_DIGESTS[f"validate-{case}"]


# ---------------------------------------------------------------------------
# The table format of cluster, generate and validate, on the same grids.

TABLE_DIGESTS = {
    "cluster-0": "e1133314eab48568af69f092415e821c804fb7e24ccd8b4fae08b48ccf1e189e",
    "cluster-0.01": "a7ae574a92cee54beaaad608bd33519462ca7738d4c973c8b56993bcf6a89719",
    "cluster-0.3": "71f6b7abcac10ec4b2b4393a66265983e0e8dd3de36030586945de214fcfbfe0",
    "cluster-1e-05": "04e1f93609e156045743e6bb1eedf654b4963029b7a84cc7b75e820681ecb233",
    "cluster-1e300": "7f2cc150985601f75dc413ec67febe4953d194565da35f4b7c95603cc1787489",
    "cluster-2.5": "8ab715e5ebeee8f0472f75b4d1e95475247d72a3a1bbac6860dfddcebec23d3e",
    "generate-exponential-1": "e6747658f50e390528820981e80a917108fa96b68515487b4186e4ce79f5f5b8",
    "generate-exponential-3": "b53dbd10a1cef33e81d2bf5891edd3308074950969e16556503ab46bf94dee20",
    "generate-mixed-3": "a038f69d56ce84b4a4d5572bc865bad28789d2d5268ced436324b9fa5843ec39",
    "generate-normal-1": "bc00a0c2526f3ee74c9a0bdd7f7f075e54713c57d32d2ae1f99aa4be83b6e6c6",
    "generate-normal-3": "05e70ac7142315b7ac3846f5cee754b0516140a77765a465e19aea5122fdfe75",
    "generate-uniform-1": "1f1865c85ccfe84c42706b6c5e1b6be73338d2664fc09cb4eb6e32dc79837204",
    "generate-uniform-3": "2a6dac5d3a2b8b5c3ff98db72b5d91ab2a501c3edb20a4b557c6163820e0b782",
    "validate-invalid": "0f16d4656391690f939fdac432243c178b0fb9af8ba299a85f441da7f7052c86",
    "validate-overflow": "9af707ad78b51e341f1cef8e7c8900c6af2c7185420fe7e5030b2b2258426bfd",
    "validate-valid": "565290334d060147a397630926bdbf7d54740c7403a2f33a2bae2337d0f0fd10",
}


@pytest.mark.parametrize("delta", CLUSTER_DELTAS)
def test_cluster_table_digest(capsys, delta):
    def check(out):
        assert out.startswith(f"delta: {float(delta):g}\nclasses: ")

    argv = ["cluster", "--format", "table", "--delta", delta]
    digest = grid_digest(capsys, cluster_document, argv, 0, check)
    assert digest == TABLE_DIGESTS[f"cluster-{delta}"]


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_table_digest(capsys, case):
    def check(out):
        assert out.startswith("valid: yes\n" if case == "valid" else "valid: no\n")
        assert ("sum left: n/a\n" in out) == (case == "overflow")

    argv = ["validate", "--format", "table"]
    digest = grid_digest(capsys, VALIDATE_CASES[case], argv, 0 if case == "valid" else 1, check)
    assert digest == TABLE_DIGESTS[f"validate-{case}"]
