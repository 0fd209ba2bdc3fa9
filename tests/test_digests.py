"""Stdout digests over a grid of seeds and shapes.

Each case hashes the ``cli.main()`` stdout of every seed in ``SEEDS`` (or
``DOC_SEEDS``), in order, into one SHA-256.  The ``generate`` digests were recorded before the
sampler was vectorised, the ``decide``, ``cluster`` and ``validate`` ones
before the JSON writer replaced ``json.dumps`` (the stage-2 ``weak`` ones
before ``decide`` stopped building the relation matrix), and the table-format ones
of ``cluster``, ``generate`` and ``validate`` before stdout was written as
UTF-8 whatever the locale, the long mixed-family ``generate`` ones
before mixed candidates were replayed from a block of PCG64 words, the
all-ASCII ``decide`` table one before ASCII rows lost their own width
rule, the long one-family ``generate`` ones before one family's
candidates were drawn in chunks, the wide mixed-family ``generate``
ones before the replay drew its words a chunk at a time, and the corner
``decide`` table one before the table was written a row at a time; a change to the draw order, the arithmetic, the render or the write
shows here as a digest mismatch.
"""

import functools
import hashlib
import json
import random

import pytest

from gutheory import decisions
from gutheory.algorithms import MAX_K
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


def generate_digest(capsys, distributions, fmt="json", k=K, seeds=SEEDS) -> str:
    digest = hashlib.sha256()
    text = json.dumps({"k": k, "distributions": distributions})
    for seed in seeds:
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


# Mixed families over sequences long enough that every slow draw of numpy's
# normal and exponential ziggurats occurs: a draw that takes a second word,
# a tail draw, a rejected draw that starts again.
LONG_MIXED_K = 5000
LONG_MIXED_SEEDS = range(10)
LONG_MIXED_CASES = {
    "exponential-normal": [EXPONENTIALS[0], NORMALS[1]],
    "uniform-exponential-normal-exponential": [
        UNIFORMS[0], EXPONENTIALS[1], NORMALS[0], EXPONENTIALS[2],
    ],
    "normal-normal-uniform": [NORMALS[1], NORMALS[2], UNIFORMS[1]],
}
LONG_MIXED_DIGESTS = {
    "json-exponential-normal": "c5076a50900ae2b1ffa7a3df152c4e26caf3896a347cb34ac38eeffa09ce7552",
    "json-normal-normal-uniform": "b16ddbd1e0b019ac39c4af8394655b041ed2bee4c020eb656e0c81590386b4f8",
    "json-uniform-exponential-normal-exponential": "1fc8d1ae6f59242c52c4df79dccf8e9995d0fff14575e7676a51c0bb52683ce4",
    "table-exponential-normal": "6946be93fd89a73135de17b154e9afd7ee7e3f25f778ed19b2a3d1a82a0e23bd",
    "table-normal-normal-uniform": "2f0a8de28092f5b5ceb0200153d2811dc32a65ebd8c3fe91174f876253a14571",
    "table-uniform-exponential-normal-exponential": "2c9894d4e1f6c363a7db56d8bc382e08fa1f8e15317a9d54cb4cc8982178183c",
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("case", sorted(LONG_MIXED_CASES))
def test_generate_long_mixed_digest(capsys, case, fmt):
    digest = generate_digest(
        capsys, LONG_MIXED_CASES[case], fmt, k=LONG_MIXED_K, seeds=LONG_MIXED_SEEDS
    )
    assert digest == LONG_MIXED_DIGESTS[f"{fmt}-{case}"]


# Mixed families long and wide enough that the replay's words span many
# chunks and its rows many chunks of rows, and one mixture wider than a
# chunk, so that a chunk of rows holds a single row.
WIDE_MIXED_SEEDS = range(3)
CYCLE = [
    (NORMALS, UNIFORMS, EXPONENTIALS)[j % 3][j // 3 % 3] for j in range(40)
]
WIDE_MIXED_CASES = {
    "normal-uniform-exponential": ([NORMALS[1], UNIFORMS[1], EXPONENTIALS[2]], 20_000),
    "cycle-40": (CYCLE, 2000),
    "cycle-20000": ([CYCLE[j % 3] for j in range(20_000)], 2),
}
WIDE_MIXED_DIGESTS = {
    "json-cycle-20000": "28d97f7af15ca36ae3f80cfee2c891cb21aa56af449c4636d4d30737dad6d117",
    "json-cycle-40": "b47f85c2ebf651f88ecdfeb14f9f841f5385788deb42b72e1d0eb6c1999078f5",
    "json-normal-uniform-exponential": "3ea38c5c3133d1e29000177286c848fe91797eef22fcfa5c654d06ceed8f8743",
    "table-cycle-20000": "46ff32e9d6b1bf701e68383a689532aef4c32911339290de0ecd7bd10794e57b",
    "table-cycle-40": "e8a806ac95dd549eabe9ba693a4c332fd12b1a780d75e7d118696ac11ffb8b98",
    "table-normal-uniform-exponential": "26b2b282584cb49ed569d54464b4571cd40b7396443f5fd39ad9f94416b86179",
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("case", sorted(WIDE_MIXED_CASES))
def test_generate_wide_mixed_digest(capsys, case, fmt):
    distributions, k = WIDE_MIXED_CASES[case]
    digest = generate_digest(capsys, distributions, fmt, k=k, seeds=WIDE_MIXED_SEEDS)
    assert digest == WIDE_MIXED_DIGESTS[f"{fmt}-{case}"]


# One family over sequences long enough that the candidate block spans many
# chunks of draws, and one mixture wider than a chunk, so that a chunk holds
# a single row.
LONG_ONE_FAMILY_K = 20_000
LONG_ONE_FAMILY_SEEDS = range(3)
SEVEN = {
    "normal": NORMALS + [
        {"family": "normal", "mu": 42, "sigma2": 9},
        {"family": "normal", "mu": -1e-3, "sigma2": 1e-8},
        {"family": "normal", "mu": 7.5, "sigma2": 0.01},
        {"family": "normal", "mu": -250, "sigma2": 100},
    ],
    "uniform": UNIFORMS + [
        {"family": "uniform", "mu": 3, "sigma2": 0.75},
        {"family": "uniform", "mu": -1e5, "sigma2": 1e6},
        {"family": "uniform", "mu": 0, "sigma2": 1},
        {"family": "uniform", "mu": 64.25, "sigma2": 2.5},
    ],
    "exponential": EXPONENTIALS + [
        {"family": "exponential", "mu": 3},
        {"family": "exponential", "mu": 1e-4},
        {"family": "exponential", "mu": 0.5},
        {"family": "exponential", "mu": 1e5},
    ],
}
LONG_ONE_FAMILY_CASES = {
    f"{family}-{n}": (specs[:n], LONG_ONE_FAMILY_K)
    for family, specs in SEVEN.items()
    for n in (1, 3, 7)
}
LONG_ONE_FAMILY_CASES["normal-20000"] = ([NORMALS[j % 3] for j in range(20_000)], 2)
LONG_ONE_FAMILY_DIGESTS = {
    "json-exponential-1": "0a4ed04c4cd21c3aaaf898c70b812edc2753f851784a5df67503683206f7b986",
    "json-exponential-3": "5e468033c81bd60c6d5143289e096c82009967e4b825274fe67ab7b1a42189ca",
    "json-exponential-7": "2336a0e226ce746b44a799476b1a3b2ebd89db7b56b6b224a14ecd5cbf3465c5",
    "json-normal-1": "db0c465fbb31ec51fd845e909f9975e038e90c7854db32e56fcce9ad26726a24",
    "json-normal-20000": "7c6bab27718cfb68fb025805b4d3e403ea59ade55e88e51436132d0b68d19bf7",
    "json-normal-3": "76b9c3e5a12a090795add4cdfd1b9dd07255545a9731a518751f21ba99845596",
    "json-normal-7": "15facb40d49542cb04f8ba3162476e05ac2184be692bd749fbcbf3caccef5067",
    "json-uniform-1": "b3a1e95cef9fd03378c0a8b185a65f9f3712cbca7001b14b1225a3a36d979a6e",
    "json-uniform-3": "60fd5ef11e272b4a4e8764bed2c5fbc40efa2885e11e9dd3e2a3277648beb956",
    "json-uniform-7": "ed94b73a5f6e8114daa264308faea0f6bee8be467317a2d6d978709b60076d3a",
    "table-exponential-1": "3c2f7ce6dc59449679aa55b8a79f62263d284c74689a31b949d6c37d76c6f055",
    "table-exponential-3": "11345e42481bc3341f4d90070e4173d269bc626dd2b9923d74cf105edc0a3922",
    "table-exponential-7": "716f1de37ed141a6e865c22d0b7f99309b09a1dc15e363b3de82f4f73c6aa314",
    "table-normal-1": "31cbc53cbd0af5285744875cdc1dc55c9eecad2323887adfb4879eb6002bbda5",
    "table-normal-20000": "622298e4d6f150255979699fbdbd45f569900333b201aba282713d5124d4ce8e",
    "table-normal-3": "38d3ef09f0b2711a2a8e53733b3670d965c5683cc4611439e86969f351599f07",
    "table-normal-7": "e70561e3ce0b7e6485381eb5fd7af41ccd02e34c0c33e9fad0aed00e01a5032b",
    "table-uniform-1": "5bbc503d09c4753802ba9cda9b9ee0c3427bed8483ec7d9f45b9dcf061c08dfd",
    "table-uniform-3": "8e9ac9e7f9398855cbdb19334bc26f87b5598426d2dab37ba348df717570e6ab",
    "table-uniform-7": "b405e7a1e3dfa4619e051865ba7001574d159c0be9c9a077e5f6ea34563a516e",
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("case", sorted(LONG_ONE_FAMILY_CASES))
def test_generate_long_one_family_digest(capsys, case, fmt):
    distributions, k = LONG_ONE_FAMILY_CASES[case]
    digest = generate_digest(capsys, distributions, fmt, k=k, seeds=LONG_ONE_FAMILY_SEEDS)
    assert digest == LONG_ONE_FAMILY_DIGESTS[f"{fmt}-{case}"]


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


def ascii_problem(rng: random.Random) -> dict:
    """A stage-1 problem printed in ASCII alone: ASCII names, and payoff
    rows at levels 1.5 apart under measures at most 1.4 wide, so each GEU
    lies strictly above or below every other level's and each comparison
    prints ``<``, ``>`` or ``=``.  The second row repeats the first, and one
    row pays a level above all others."""
    natures = []
    for j in range(rng.randint(1, 5)):
        left = rng.uniform(0.05, 0.2)
        natures.append({"name": f"Status {j + 1}", "gum": [left, left * rng.uniform(1.0, 1.4)]})
    scale = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(0, 12)
    base = [rng.uniform(0.5, 1.0) * scale for _ in natures]
    levels = [rng.randint(0, 6) for _ in range(rng.randint(2, 25))]
    levels.insert(1, levels[0])
    levels.insert(rng.randrange(2, len(levels) + 1), 8)
    schemes = [
        {"name": f"Scheme {i + 1}", "payoffs": [p * 1.5**level for p in base]}
        for i, level in enumerate(levels)
    ]
    return {"natures": natures, "schemes": schemes}


#: Payoffs at the corners of ``%g``: zero, the least subnormal, the
#: exponent thresholds, rounding up to an exponent, and the float range.
G_CORNERS = (0.0, 5e-324, 1e-05, 999999.5, 1234567.0, 1e16, 1.7e308)


def corner_problem(rng: random.Random) -> dict:
    """A problem whose payoff columns print wider and narrower than their
    status names, under names that print wide (CJK), as a backslash escape
    (a lone surrogate) or end in spaces, in the header and the first
    column.  Each status measure lies inside ``[0, 1 / n]``, so even rows of
    1.7e308 sum inside the float range."""
    names = ["\u7532\u4e59", "x\ud800", "n  ", "n", "a longer status"]
    rng.shuffle(names)
    statuses = names[:rng.randint(1, len(names))]
    natures = []
    for name in statuses:
        left = rng.uniform(0.0, 0.5) / len(statuses)
        natures.append({"name": name, "gum": [left, rng.uniform(left, 1.0 / len(statuses))]})
    count = rng.randint(1, 12)
    schemes = ["\u7532\u4e59", "x\ud800", "S  "] + [f"S{i}" for i in range(3, count)]
    rng.shuffle(schemes)
    return {
        "natures": natures,
        "schemes": [
            {"name": name, "payoffs": [rng.choice(G_CORNERS) for _ in natures]}
            for name in schemes[:count]
        ],
        "attitude": rng.choice(["averse", "seeking"]),
    }


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

CORNER_TABLE_DIGEST = "ec8bca3ffbfd1389bc08ff89dd85e193172fc5660884a7c5e46dd8925987a86a"
ASCII_TABLE_DIGEST = "66df57218ba6c0b8bc94ea9e59d9d9efe04041a61a0d24035fed15da9c6ebcad"


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
    monkeypatch.setattr(decisions, "_relation_rows", refuse)
    build, argv = DECIDE_CASES[case]
    digest = grid_digest(capsys, build, ["decide", *argv], 0, lambda out: None)
    assert digest == GRID_DIGESTS[f"decide-{case}"]


def test_decide_ascii_table_digest(capsys):
    """The table of a problem whose every cell is ASCII, which none of the
    grids above prints."""
    def check(out):
        assert out.isascii()
        assert "(StronglyAdvantage)" in out and " = GEU1" in out

    argv = ["decide", "--format", "table"]
    digest = grid_digest(capsys, ascii_problem, argv, 0, check)
    assert digest == ASCII_TABLE_DIGEST


def test_decide_corner_table_digest(capsys):
    """The table of payoffs at the corners of ``%g`` under wide, escaped
    and space-padded names, in the header and in the first column."""
    def check(out):
        assert "\nselected: " in out

    argv = ["decide", "--format", "table"]
    digest = grid_digest(capsys, corner_problem, argv, 0, check)
    assert digest == CORNER_TABLE_DIGEST


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


# ---------------------------------------------------------------------------
# Schema errors: each digest document broken by one seeded mutation.  The
# digests hash the exit code and the stderr of every call, recorded before
# the schema checker was compiled into closures, so each path and reason
# stays byte-identical.

WRONG_VALUES = ("x", 7, [], {}, None, False)
ODD_KEYS = ("extra", "x y", "it's", "a\nb", "é")


def json_kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def members(value):
    """Every ``(container, key)`` under ``value``, in document order."""
    if isinstance(value, dict):
        pairs = list(value.items())
    elif isinstance(value, list):
        pairs = list(enumerate(value))
    else:
        return
    for key, item in pairs:
        yield value, key
        yield from members(item)


def wrong_type(rng, document):
    container, key = rng.choice(list(members(document)))
    kind = json_kind(container[key])
    container[key] = rng.choice([v for v in WRONG_VALUES if json_kind(v) != kind])


def objects(document):
    return [document] + [c[k] for c, k in members(document) if isinstance(c[k], dict)]


def missing_key(rng, document):
    target = rng.choice([d for d in objects(document) if d])
    del target[rng.choice(list(target))]


def extra_key(rng, document):
    rng.choice(objects(document))[rng.choice(ODD_KEYS)] = 1


def true_for_number(rng, document):
    numbers = [(c, k) for c, k in members(document) if json_kind(c[k]) == "number"]
    container, key = rng.choice(numbers)
    container[key] = True


def emptied(rng, document):
    sized = [(c, k) for c, k in members(document) if isinstance(c[k], (str, list, dict))]
    container, key = rng.choice(sized)
    container[key] = type(container[key])()


def appended(rng, document):
    lists = [c[k] for c, k in members(document) if isinstance(c[k], list)]
    rng.choice(lists).append(rng.choice([0.5, "x"]))


def k_out_of_range(rng, document):
    document["k"] = rng.choice([0, -3, 2.5, MAX_K + 1, 10**7])


def duplicate_atom(rng, document):
    atoms = document["atoms"]
    atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(atoms))


def unknown_family(rng, document):
    rng.choice(document["distributions"])["family"] = rng.choice(["gamma", "Normal", "", "normal "])


def generate_document(rng: random.Random) -> dict:
    case = GENERATE_CASES[rng.choice(sorted(GENERATE_CASES))]
    return {"k": K, "seed": rng.randrange(100), "distributions": json.loads(json.dumps(case))}


SCHEMA_ERROR_DOCUMENTS = {
    "decide": narrow_problem,
    "cluster": cluster_document,
    "validate": coherent_space,
    "generate": generate_document,
}
COMMON_MUTATIONS = {
    "wrong-type": wrong_type,
    "missing-key": missing_key,
    "extra-key": extra_key,
    "true-for-number": true_for_number,
    "emptied": emptied,
    "appended": appended,
}
SCHEMA_ERROR_CASES = {
    **{(command, name): mutate
       for command in SCHEMA_ERROR_DOCUMENTS for name, mutate in COMMON_MUTATIONS.items()},
    ("generate", "k-out-of-range"): k_out_of_range,
    ("generate", "unknown-family"): unknown_family,
    ("validate", "duplicate-atom"): duplicate_atom,
}

SCHEMA_ERROR_DIGESTS = {
    "cluster-appended": "08bb825e94c1975fed1e666e10d6d49e8ef0f7727fa97bd2da48068cdc18c96e",
    "cluster-emptied": "ca27a6aabc39674a0522f800a211d25f8db2f2437582c81539373158412cde33",
    "cluster-extra-key": "a8d718f4f40410f7fe6f84fa44cbd8a92d8c5449588ed0c8ac9005797ed2c62d",
    "cluster-missing-key": "38c12c5dbb86e57f6e58a872e10c77520e5497477bd3b95841ceaab556395547",
    "cluster-true-for-number": "43f4a40fd04934b0994b32ac94a2fc7fc27ad89e5a79f528cc431910e9383290",
    "cluster-wrong-type": "5e9139e4ab363a70b755f12bb189b280a3c43c041b070e0db8b5b7998919b025",
    "decide-appended": "dc6bc249fd2ef88b043fb98b2a5433f43fae8a947eef3d3c35e096603c1da947",
    "decide-emptied": "9f7dcbc743584814ba192ce75a26e28b92690a9a7e341a25426b1212046cca89",
    "decide-extra-key": "6792a3d657136d97e1417e6d8b75b4b1866c826388b46a61b552ac969059aef1",
    "decide-missing-key": "428b02b6bb75c82a0ea4137d23cb78f4fba1ae7cdb59f5e2b64698694ac3735c",
    "decide-true-for-number": "5ee9bb7a9cfd635f2c79bb89d6cc8a6496d8512d3e36fadbde11f557747f0482",
    "decide-wrong-type": "9356f2243312d216543ffdbbbba01fd29c3da9f6df2906cc445e27977f44086f",
    "generate-appended": "c921ee924243c44e0a9f2999d3751085417944c0f1700d27bc86cc7a5ce526ce",
    "generate-emptied": "b2a9279ba1905581cfbd1a6c965bb00ee217c6dd6bb9259c1728ac6f4cc76cd2",
    "generate-extra-key": "e5825ab8daa84ad3562cee65e711c273f4078efc99e1943287b037de6cffaa29",
    "generate-k-out-of-range": "94d843e7126860d8f0c03ec55253220ed4f32b519271ff88a807e32a453ece26",
    "generate-missing-key": "cfbdef9e845e71ac2fba2272951e548d4418bae12a14c7a54171a10e1666f4bc",
    "generate-true-for-number": "cb27caa605821731060c042f59ec2c487f78b2e7baef4eff2e43b490c21883d3",
    "generate-unknown-family": "8f59562a5937784ecb7f0315908df18a8b07486c9b94820b227af825035cd581",
    "generate-wrong-type": "483e438604087236f1fbe240bc2966228703c581508d784e18eb0b094f32678d",
    "validate-appended": "50f3f881e414cf623b15c2e31a3ef805989e57d37ca4e3b2c0aa7a8ca8edbcd2",
    "validate-duplicate-atom": "ae862b631147f2a229358d6de88a8f19ea716c48ffe3ae0a53b6cc0917ebb4da",
    "validate-emptied": "2bc8e4453a7165d648031342d8a16f7e4d566b59f6397bd90eeb14fe332f9dc1",
    "validate-extra-key": "b1d85d63673d7999f99c9acdcb242344e52dfeb867d0f586866fe44584dba65a",
    "validate-missing-key": "027844d5c55844e192ada1d662eefe690c9183b1901f0d7f8098173b3a01a21d",
    "validate-true-for-number": "5903ed601c7881d8b8cadf0690f0d516a81d2d54e4d652214732197fa554fde3",
    "validate-wrong-type": "1a9cddc7ffdab3d9d58c455457777c895caecebd308d57f83252385a185203c2",
}


@pytest.mark.parametrize("command, mutation", sorted(SCHEMA_ERROR_CASES))
def test_schema_error_digest(capsys, command, mutation):
    digest = hashlib.sha256()
    usage_errors = 0
    for seed in DOC_SEEDS:
        rng = random.Random(seed)
        document = SCHEMA_ERROR_DOCUMENTS[command](rng)
        SCHEMA_ERROR_CASES[command, mutation](rng, document)
        code = main([command, "--input", json.dumps(document)])
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0)
        usage_errors += code == 2
        digest.update(f"{code}\n{err}".encode())
    assert usage_errors >= len(DOC_SEEDS) // 2
    assert digest.hexdigest() == SCHEMA_ERROR_DIGESTS[f"{command}-{mutation}"]
