"""Acceptance gate: nine numbered criteria, one verdict line each.

Run ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines on
the terminal; without ``-s`` they still appear in captured output when a
criterion fails.  Every criterion is also a normal assertion, so the
suite is red whenever a verdict is FAIL.
"""

import math
import statistics
import time

import numpy as np

from gutheory import (
    DecisionProblem,
    DistributionSpec,
    GUFunctionEnvelope,
    GUInterval,
    NatureStatus,
    Relation,
    Scheme,
    classify,
    compare,
    complement,
    decide,
    delta_neighbour,
    generate_sequence,
    geu,
    gu_derivative,
    gu_integral,
    nested_limit,
    GUMeasureSpace,
    add,
)

NATURES = (
    NatureStatus("Status 1", GUInterval(0.1, 0.2)),
    NatureStatus("Status 2", GUInterval(0.2, 0.3)),
    NatureStatus("Status 3", GUInterval(0.5, 0.7)),
)

FOUR_SCHEMES = (
    Scheme("S1", (100.0, 80.0, 90.0)),
    Scheme("S2", (120.0, 130.0, 110.0)),
    Scheme("S3", (150.0, 150.0, 120.0)),
    Scheme("S4", (160.0, 90.0, 140.0)),
)

FIFTH = Scheme("S5", (0.0, 530.0, 0.0))

FOUR_GEUS = (
    GUInterval(71.0, 107.0),
    GUInterval(93.0, 140.0),
    GUInterval(105.0, 159.0),
    GUInterval(104.0, 157.0),
)

FIFTH_GEU = GUInterval(106.0, 159.0)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_payoff_table_reproduction():
    problem = DecisionProblem(NATURES, FOUR_SCHEMES)
    report = decide(problem)
    geus_ok = all(
        abs(got.left - want.left) <= 1e-9 and abs(got.right - want.right) <= 1e-9
        for got, want in zip(report.geus, FOUR_GEUS)
    )
    exact = tuple(report.geus) == FOUR_GEUS
    relations_ok = (
        compare(report.geus[1], report.geus[0]) is Relation.WEAKLY_GREATER
        and compare(report.geus[2], report.geus[1]) is Relation.WEAKLY_GREATER
        and compare(report.geus[3], report.geus[2]) is Relation.WEAKLY_SMALLER
    )
    column_ok = report.comparison_column[0] is None and [
        (e.scheme, e.versus, e.relation) for e in report.comparison_column[1:]
    ] == [
        ("S2", "S1", Relation.WEAKLY_GREATER),
        ("S3", "S2", Relation.WEAKLY_GREATER),
        ("S4", "S3", Relation.WEAKLY_SMALLER),
    ]
    best = min(
        _timed(lambda: decide(problem)) for _ in range(5)
    )
    ok = geus_ok and exact and relations_ok and column_ok and report.selected == "S3" and best < 1e-3
    _verdict(
        1,
        ok,
        f"four-scheme table reproduced exactly, selected {report.selected}, "
        f"decide in {best * 1e6:.0f} us",
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_fifth_scheme_and_attitudes():
    schemes = FOUR_SCHEMES + (FIFTH,)
    geu5 = geu(FIFTH.payoffs, [n.gum for n in NATURES])
    averse = decide(DecisionProblem(NATURES, schemes, attitude="averse"))
    seeking = decide(DecisionProblem(NATURES, schemes, attitude="seeking"))
    widths = {"S3": averse.geus[2], "S5": averse.geus[4]}
    ok = (
        geu5 == FIFTH_GEU
        and compare(geu5, FOUR_GEUS[2]) is Relation.PARTLY_SMALLER
        and averse.selected == "S5"
        and seeking.selected == "S3"
        and widths["S5"].right - widths["S5"].left == 53.0
        and widths["S3"].right - widths["S3"].left == 54.0
    )
    _verdict(
        2,
        ok,
        f"GEU5 {geu5}, partly smaller than GEU3; averse -> {averse.selected}, "
        f"seeking -> {seeking.selected} (gud 53 vs 54)",
    )


def test_criterion_3_degenerate_collapse_oracle():
    rng = np.random.default_rng(20260823)
    trials = 0
    bad = None
    while trials < 1000:
        n = int(rng.integers(1, 9))
        s = int(rng.integers(2, 7))
        payoffs = rng.uniform(0.0, 100.0, size=(s, n))
        probs = rng.uniform(0.01, 1.0, size=n)
        classical = payoffs @ probs
        order = np.sort(classical)
        if len(order) > 1 and order[-1] - order[-2] < 1e-8:
            continue  # a near-tie would test float luck, not the procedure
        trials += 1
        natures = tuple(
            NatureStatus(f"N{j}", GUInterval(probs[j], probs[j])) for j in range(n)
        )
        schemes = tuple(
            Scheme(f"S{i}", tuple(payoffs[i])) for i in range(s)
        )
        attitude = "averse" if trials % 2 else "seeking"
        report = decide(DecisionProblem(natures, schemes, attitude=attitude))
        if report.selected_index != int(np.argmax(classical)):
            bad = f"trial {trials}: picked {report.selected_index}, oracle {int(np.argmax(classical))}"
            break
        for i in range(s):
            if (
                abs(report.geus[i].left - classical[i]) > 1e-12
                or abs(report.geus[i].right - classical[i]) > 1e-12
            ):
                bad = f"trial {trials}: GEU {report.geus[i]} vs classical {classical[i]!r}"
                break
        if bad:
            break
    _verdict(
        3,
        bad is None,
        bad or "1000 degenerate problems match the classical argmax to 1e-12",
    )


def _random_dyadic_space(rng):
    n = int(rng.integers(2, 6))
    cap = 1024 // n
    lefts = rng.integers(0, cap + 1, size=n)
    bump = -(-(1024 - int(lefts.sum())) // n)
    rights = np.minimum(1024, lefts + bump + rng.integers(0, 201, size=n))
    atoms = [f"a{i}" for i in range(n)]
    return GUMeasureSpace(
        atoms,
        {a: (lefts[i] / 1024.0, rights[i] / 1024.0) for i, a in enumerate(atoms)},
    )


def _random_float_space(rng):
    n = int(rng.integers(2, 6))
    lefts = rng.uniform(0.0, 1.0 / n, size=n)
    shortfall = max(0.0, 1.0 - math.fsum(lefts))
    rights = np.minimum(1.0, lefts + shortfall / n + rng.uniform(1e-6, 0.2, size=n))
    atoms = [f"a{i}" for i in range(n)]
    return GUMeasureSpace(
        atoms, {a: (lefts[i], rights[i]) for i, a in enumerate(atoms)}
    )


def _event(space, mask):
    return {a for i, a in enumerate(space.atoms) if mask >> i & 1}


def test_criterion_4_axiom_property_suite():
    rng = np.random.default_rng(41)
    bad = None
    den = 1 << 20

    for case in range(10_000):
        a, b = sorted(rng.integers(0, den + 1, size=2))
        iv = GUInterval(a / den, b / den)
        if complement(complement(iv)) != iv:
            bad = f"complement involution broke on {iv}"
            break

    if bad is None:
        for case in range(10_000):
            space = _random_dyadic_space(rng)
            n = len(space.atoms)
            mask_a = int(rng.integers(0, 1 << n))
            mask_b = int(rng.integers(0, 1 << n)) & ~mask_a
            lhs = space.measure_raw(_event(space, mask_a | mask_b))
            rhs = add(
                space.measure_raw(_event(space, mask_a)),
                space.measure_raw(_event(space, mask_b)),
            )
            if lhs != rhs:
                bad = f"disjoint additivity broke: {lhs} vs {rhs}"
                break

    if bad is None:
        for case in range(10_000):
            space = _random_dyadic_space(rng)
            n = len(space.atoms)
            big = int(rng.integers(0, 1 << n))
            small = int(rng.integers(0, 1 << n)) & big
            # the unclipped sums carry the nesting property; clipping at 1
            # can collapse two upper sums onto each other and turn the pair
            # into the containment shape that is Partly by definition
            rel = compare(
                space.measure_raw(_event(space, small)),
                space.measure_raw(_event(space, big)),
            )
            if rel in (Relation.PARTLY_SMALLER, Relation.PARTLY_GREATER):
                bad = f"nested events classified {rel.value}"
                break

    if bad is None:
        for case in range(10_000):
            space = _random_float_space(rng)
            n = len(space.atoms)
            a = _event(space, int(rng.integers(0, 1 << n)))
            b = _event(space, int(rng.integers(0, 1 << n)))
            got = space.union_measure(a, b)
            want = space.measure_raw(a | b)
            if abs(got.left - want.left) > 1e-12 or abs(got.right - want.right) > 1e-12:
                bad = f"union identity off: {got} vs {want}"
                break

    if bad is None:
        for case in range(10_000):
            space = _random_float_space(rng)
            n = len(space.atoms)
            event = _event(space, int(rng.integers(0, 1 << n)))
            if space.conditional(event, set(space.atoms)) != space.measure(event):
                bad = f"conditioning on the whole space moved {space.measure(event)}"
                break

    _verdict(
        4,
        bad is None,
        bad
        or "involution, additivity, nesting, union and conditioning held "
        "over 10000 cases each",
    )


def test_criterion_5_comparison_totality_and_mirror():
    rng = np.random.default_rng(5)
    bad = None
    counts = {rel: 0 for rel in Relation}
    for case in range(10_000):
        a1, b1 = sorted(rng.uniform(0.0, 1.0, size=2))
        a2, b2 = sorted(rng.uniform(0.0, 1.0, size=2))
        mode = case % 4
        if mode == 1:
            a2 = a1
            b2 = max(a2, b2)
        elif mode == 2:
            b2 = b1
            a2 = min(a2, b2)
        elif mode == 3:
            a2, b2 = a1, b1
        i1, i2 = GUInterval(a1, b1), GUInterval(a2, b2)
        rel = compare(i1, i2)
        if not isinstance(rel, Relation):
            bad = f"compare returned {rel!r}"
            break
        counts[rel] += 1
        if compare(i2, i1) is not rel.mirrored:
            bad = f"mirror asymmetry on {i1} vs {i2}: {rel.value}"
            break
    seen = sum(counts.values())
    _verdict(
        5,
        bad is None and seen == 10_000,
        bad or "10000 pairs, each with exactly one mirrored relation tag",
    )


def _oracle_classes(items, delta):
    out = []
    left = list(range(len(items)))
    while left:
        p = left[0]
        members = [
            i
            for i in left
            if abs(items[i].left - items[p].left) <= delta
            and abs(items[i].right - items[p].right) <= delta
        ]
        out.append(members)
        left = [i for i in left if i not in members]
    return out


def test_criterion_6_clustering_oracle():
    rng = np.random.default_rng(6)
    bad = None
    for trial in range(1000):
        n = int(rng.integers(0, 11))
        items = [
            GUInterval(*sorted(rng.uniform(0.0, 1.0, size=2))) for _ in range(n)
        ]
        delta = 0.0 if trial % 10 == 0 else float(rng.uniform(0.0, 0.5))
        got = classify(items, delta)
        if got != _oracle_classes(items, delta):
            bad = f"trial {trial}: {got} vs oracle {_oracle_classes(items, delta)}"
            break
        flat = sorted(i for members in got for i in members)
        if flat != list(range(n)):
            bad = f"trial {trial}: not a partition: {got}"
            break
        seen: set = set()
        for members in got:
            pivot = members[0]
            if pivot != min(set(range(n)) - seen):
                bad = f"trial {trial}: pivot {pivot} is not the first unclassed item"
                break
            if not all(delta_neighbour(items[pivot], items[i], delta) for i in members):
                bad = f"trial {trial}: non-neighbour inside a class"
                break
            seen.update(members)
        if bad:
            break
    _verdict(6, bad is None, bad or "1000 trials equal the brute-force oracle")


def test_criterion_7_generator_statistics():
    specs = (
        DistributionSpec("normal", mu=0.0, sigma2=1.0),
        DistributionSpec("normal", mu=10.0, sigma2=1.0),
    )
    inside = 0
    for seed in range(100):
        mean = statistics.fmean(generate_sequence(specs, k=1000, seed=seed))
        if 0.0 <= mean <= 10.0:
            inside += 1
    replay = tuple(generate_sequence(specs, k=1000, seed=17))
    deterministic = replay == tuple(generate_sequence(specs, k=1000, seed=17))
    ok = inside >= 99 and deterministic
    _verdict(
        7,
        ok,
        f"mixture mean inside [0, 10] in {inside}/100 seeded runs; "
        "identical seed replays the sequence",
    )


def test_criterion_8_nested_limit_convergence():
    chain = [
        GUInterval(0.5 - 1.0 / n, 0.5 + 1.0 / n) for n in range(1, 1_000_001)
    ]
    got = nested_limit(chain)
    ok = abs(got.estimate - 0.5) <= 1e-6
    _verdict(
        8,
        ok,
        f"limit of the million-step chain is {got.estimate!r} "
        f"(error bound {got.error_bound:.3g})",
    )


def test_criterion_9_calculus_checks():
    box = GUFunctionEnvelope(
        lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(0.0, 1.0)
    )
    integral = gu_integral(box, 0.0, 1.0)
    parabola = GUFunctionEnvelope(
        lower=lambda x: x * x, upper=lambda x: x * x, domain=(0.0, 2.0)
    )
    derivative = gu_derivative(parabola, 1.0)
    ok = (
        abs(integral.left - 0.0) <= 1e-6
        and abs(integral.right - 1.0) <= 1e-6
        and abs(derivative.left - 2.0) <= 1e-4
        and abs(derivative.right - 2.0) <= 1e-4
    )
    _verdict(
        9,
        ok,
        f"unit-box integral {integral}, parabola derivative at 1 {derivative}",
    )
