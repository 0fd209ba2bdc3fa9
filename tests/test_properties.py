"""Randomized invariants.

Exactness claims (== on floats) are made only on dyadic-rational inputs,
where endpoint arithmetic is exact in binary floating point; generic
float inputs get machine-precision bounds instead.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gutheory import (
    DEFAULT_TOLERANCE,
    DecisionProblem,
    DiscreteGUVariable,
    GUFunctionEnvelope,
    GUInterval,
    GUMeasureSpace,
    GutError,
    IntervalError,
    JointDiscreteGUVariable,
    NatureStatus,
    Relation,
    Scheme,
    SelectionRationale,
    ValidationError,
    add,
    classify,
    compare,
    complement,
    covariance,
    decide,
    delta_neighbour,
    density_expectation,
    endpoint_sum,
    geu,
    gu_derivative,
    gu_integral,
    gu_limit,
    gu_variation,
    gud,
    inverse,
    nested_limit,
    normalize,
    sub,
)
from gutheory import decisions
from gutheory.decisions import ATTITUDES, relation_matrix
from gutheory.intervals import _classify
from gutheory.variables import RESOLUTION

DEN = 1 << 20
GRID = 1024

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def proper_intervals(draw):
    a, b = sorted((draw(unit_floats), draw(unit_floats)))
    return GUInterval(a, b)


@st.composite
def dyadic_intervals(draw):
    a, b = sorted((draw(st.integers(0, DEN)), draw(st.integers(0, DEN))))
    return GUInterval(a / DEN, b / DEN)


@st.composite
def coarse_intervals(draw):
    """Intervals on a 1/16 grid, so endpoints tie with each other and with
    tolerances on the same grid."""
    a, b = sorted((draw(st.integers(0, 16)), draw(st.integers(0, 16))))
    return GUInterval(a / 16, b / 16)


@st.composite
def boundary_interval_pairs(draw):
    """Pairs with a bias towards shared endpoints."""
    i1 = draw(proper_intervals())
    i2 = draw(proper_intervals())
    mode = draw(st.integers(0, 3))
    if mode == 1:
        i2 = GUInterval(i1.left, max(i1.left, i2.right))
    elif mode == 2:
        i2 = GUInterval(min(i2.left, i1.right), i1.right)
    elif mode == 3:
        i2 = i1
    return i1, i2


@st.composite
def dyadic_spaces(draw):
    """Coherent spaces whose endpoints are multiples of 1/1024."""
    n = draw(st.integers(1, 6))
    cap = GRID // n
    lefts = [draw(st.integers(0, cap)) for _ in range(n)]
    need = GRID - sum(lefts)
    bump = -(-need // n)
    rights = [
        min(GRID, lefts[i] + bump + draw(st.integers(0, 200))) for i in range(n)
    ]
    atoms = [f"a{i}" for i in range(n)]
    assignment = {
        a: GUInterval(lefts[i] / GRID, rights[i] / GRID) for i, a in enumerate(atoms)
    }
    return GUMeasureSpace(atoms, assignment)


@st.composite
def float_spaces(draw):
    n = draw(st.integers(2, 6))
    lefts = [draw(st.floats(0.0, 1.0 / n)) for _ in range(n)]
    shortfall = max(0.0, 1.0 - math.fsum(lefts))
    rights = [
        min(1.0, lefts[i] + shortfall / n + draw(st.floats(1e-6, 0.2)))
        for i in range(n)
    ]
    atoms = [f"a{i}" for i in range(n)]
    try:
        return GUMeasureSpace(
            atoms,
            {a: GUInterval(lefts[i], rights[i]) for i, a in enumerate(atoms)},
        )
    except ValidationError:
        assume(False)


# Endpoints on a 0.01 grid, so gaps fall exactly on grid deltas, plus the
# signed zero and values near the ends of the float range.
window_endpoints = st.one_of(
    st.integers(-100, 100).map(lambda k: k / 100),
    st.sampled_from([-0.0, 1e300, -1e300]),
)


@st.composite
def classing_items(draw):
    """Up to 200 proper pairs, some of them repeated.

    The sizes are drawn first, because Hypothesis keeps free-sized lists
    short and a short list never reaches a window edge.
    """
    n = draw(st.integers(0, 160))
    pair = st.tuples(window_endpoints, window_endpoints).map(lambda p: tuple(sorted(p)))
    pairs = draw(st.lists(pair, min_size=n, max_size=n))
    if pairs:
        r = draw(st.integers(0, 40))
        repeats = draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r))
        pairs += [pairs[i] for i in repeats]
    return draw(st.permutations(pairs))


def event_from_mask(space, mask):
    return {a for i, a in enumerate(space.atoms) if mask >> i & 1}


class TestIntervalInvariants:
    @given(dyadic_intervals())
    def test_complement_involution_exact(self, iv):
        twice = complement(complement(iv))
        assert twice == iv
        c = complement(iv)
        assert 0.0 <= c.left <= 1.0 and 0.0 <= c.right <= 1.0

    @given(dyadic_intervals(), dyadic_intervals())
    def test_add_sub_recovery_exact(self, i1, i2):
        assert sub(add(i1, i2), i2) == i1

    @given(proper_intervals())
    def test_inverse_involution(self, iv):
        assert inverse(inverse(iv)) == iv

    @given(proper_intervals())
    def test_normalize_idempotent(self, iv):
        once = normalize(inverse(iv))
        assert once.is_proper
        assert normalize(once) == once

    @given(proper_intervals())
    def test_gud_nonnegative_zero_iff_degenerate(self, iv):
        width = gud(iv)
        assert width >= 0.0
        assert (width == 0.0) == (iv.left == iv.right)

    @given(boundary_interval_pairs())
    def test_compare_total_and_mirrored(self, pair):
        i1, i2 = pair
        rel = compare(i1, i2)
        assert isinstance(rel, Relation)
        assert compare(i2, i1) is rel.mirrored

    @given(proper_intervals(), proper_intervals(), proper_intervals())
    def test_strong_order_transitive(self, a, b, c):
        if (
            compare(a, b) is Relation.STRONGLY_SMALLER
            and compare(b, c) is Relation.STRONGLY_SMALLER
        ):
            assert compare(a, c) is Relation.STRONGLY_SMALLER

    @given(
        st.one_of(coarse_intervals(), proper_intervals()),
        st.one_of(coarse_intervals(), proper_intervals()),
        st.one_of(
            st.just(0.0), st.integers(0, 16).map(lambda k: k / 16), unit_floats
        ),
    )
    def test_domination_raises_the_right_endpoint(self, i1, i2, tol):
        # Why decide's stage 3 always has a survivor: domination is acyclic.
        if compare(i1, i2, tol) in (Relation.STRONGLY_GREATER, Relation.WEAKLY_GREATER):
            assert i1.right - i2.right > tol

    @given(proper_intervals(), proper_intervals(), unit_floats, unit_floats)
    def test_delta_neighbour_symmetric_reflexive_monotone(self, i1, i2, d1, d2):
        assert delta_neighbour(i1, i1, d1)
        assert delta_neighbour(i1, i2, d1) == delta_neighbour(i2, i1, d1)
        lo, hi = sorted((d1, d2))
        if delta_neighbour(i1, i2, lo):
            assert delta_neighbour(i1, i2, hi)


class TestSpaceInvariants:
    @given(dyadic_spaces(), st.integers(0, 63), st.integers(0, 63))
    def test_disjoint_additivity_exact(self, space, mask_a, mask_b):
        n = len(space.atoms)
        mask_a &= (1 << n) - 1
        mask_b &= (1 << n) - 1 & ~mask_a
        a = event_from_mask(space, mask_a)
        b = event_from_mask(space, mask_b)
        union = space.measure_raw(a | b)
        assert union == add(space.measure_raw(a), space.measure_raw(b))

    @given(dyadic_spaces(), st.integers(0, 63), st.integers(0, 63))
    def test_nested_events_never_partly(self, space, mask_small, mask_big):
        n = len(space.atoms)
        mask_big &= (1 << n) - 1
        mask_small &= mask_big
        small = event_from_mask(space, mask_small)
        big = event_from_mask(space, mask_big)
        rel = compare(space.measure_raw(small), space.measure_raw(big))
        assert rel in (
            Relation.EQUAL,
            Relation.WEAKLY_SMALLER,
            Relation.STRONGLY_SMALLER,
        )
        # after clipping at 1 the upper sums may coincide, which turns the
        # pair into a containment; but the subset can still never come out
        # on the strictly bigger side
        clipped = compare(space.measure(small), space.measure(big))
        assert clipped not in (
            Relation.PARTLY_SMALLER,
            Relation.STRONGLY_GREATER,
            Relation.WEAKLY_GREATER,
        )

    @given(float_spaces(), st.integers(0, 63), st.integers(0, 63))
    def test_union_identity(self, space, mask_a, mask_b):
        n = len(space.atoms)
        a = event_from_mask(space, mask_a & ((1 << n) - 1))
        b = event_from_mask(space, mask_b & ((1 << n) - 1))
        got = space.union_measure(a, b)
        want = space.measure_raw(a | b)
        assert abs(got.left - want.left) <= 1e-12
        assert abs(got.right - want.right) <= 1e-12

    @given(float_spaces(), st.integers(0, 63))
    def test_conditioning_on_everything_is_identity(self, space, mask):
        event = event_from_mask(space, mask & ((1 << len(space.atoms)) - 1))
        assert space.conditional(event, set(space.atoms)) == space.measure(event)

    @given(float_spaces(), st.integers(0, 63))
    def test_measure_stays_in_unit_range(self, space, mask):
        event = event_from_mask(space, mask & ((1 << len(space.atoms)) - 1))
        assert space.measure(event).is_measure_valid


@st.composite
def dyadic_variables(draw):
    n = draw(st.integers(1, 5))
    values = tuple(float(v) for v in sorted(draw(
        st.sets(st.integers(-20, 20), min_size=n, max_size=n)
    )))
    cap = GRID // n
    lefts = [draw(st.integers(0, cap)) for _ in range(n)]
    need = GRID - sum(lefts)
    bump = -(-need // n)
    masses = tuple(
        GUInterval(
            lefts[i] / GRID,
            min(GRID, lefts[i] + bump + draw(st.integers(0, 200))) / GRID,
        )
        for i in range(n)
    )
    return DiscreteGUVariable(values=values, masses=masses)


class TestVariableInvariants:
    @given(dyadic_variables(), st.floats(-25.0, 25.0, allow_nan=False), st.floats(0.0, 5.0, allow_nan=False))
    def test_distribution_monotone(self, variable, x, step):
        lo = variable.distribution_at(x)
        hi = variable.distribution_at(x + step)
        assert lo.left <= hi.left and lo.right <= hi.right

    @given(dyadic_variables())
    def test_distribution_ends_at_total(self, variable):
        top = variable.values[-1]
        assert variable.distribution_at(top) == endpoint_sum(variable.masses)

    @given(dyadic_variables(), st.integers(-3, 6))
    def test_expectation_power_of_two_homogeneity(self, variable, k):
        c = 2.0**k
        scaled_values = tuple(c * v for v in variable.values)
        assume(all(
            a < b for a, b in zip(scaled_values, scaled_values[1:])
        ))
        scaled = DiscreteGUVariable(values=scaled_values, masses=variable.masses)
        base = variable.expectation()
        assert scaled.expectation() == GUInterval(c * base.left, c * base.right)

    @given(dyadic_variables(), st.floats(0.1, 7.0, allow_nan=False))
    def test_expectation_generic_homogeneity(self, variable, c):
        scaled_values = tuple(c * v for v in variable.values)
        assume(all(a < b for a, b in zip(scaled_values, scaled_values[1:])))
        scaled = DiscreteGUVariable(values=scaled_values, masses=variable.masses)
        base = variable.expectation()
        tol = 1e-9 * max(1.0, abs(base.left), abs(base.right))
        assert abs(scaled.expectation().left - c * base.left) <= tol
        assert abs(scaled.expectation().right - c * base.right) <= tol


finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def weighted_intervals(draw):
    """Intervals of either orientation, each with a weight."""
    n = draw(st.integers(0, 8))
    intervals = [GUInterval(draw(finite_floats), draw(finite_floats)) for _ in range(n)]
    weights = [draw(finite_floats) for _ in range(n)]
    return intervals, weights


class TestEndpointSumInvariants:
    @given(weighted_intervals())
    def test_matches_paired_fsum(self, pairs):
        intervals, weights = pairs
        assert endpoint_sum(intervals, weights) == GUInterval(
            math.fsum(w * i.left for w, i in zip(weights, intervals)),
            math.fsum(w * i.right for w, i in zip(weights, intervals)),
        )
        assert endpoint_sum(intervals) == GUInterval(
            math.fsum(i.left for i in intervals), math.fsum(i.right for i in intervals)
        )

    @given(weighted_intervals(), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, random):
        intervals, weights = pairs
        order = list(range(len(intervals)))
        random.shuffle(order)
        shuffled = endpoint_sum([intervals[k] for k in order], [weights[k] for k in order])
        assert shuffled == endpoint_sum(intervals, weights)


@st.composite
def dyadic_measure_rows(draw):
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        a, b = sorted((draw(st.integers(0, GRID)), draw(st.integers(0, GRID))))
        rows.append(GUInterval(a / GRID, b / GRID))
    return rows


class TestGeuInvariants:
    @given(dyadic_measure_rows(), st.data())
    def test_additive_in_payoff_rows(self, measures, data):
        n = len(measures)
        p = [float(data.draw(st.integers(0, GRID))) for _ in range(n)]
        q = [float(data.draw(st.integers(0, GRID))) for _ in range(n)]
        combined = geu([a + b for a, b in zip(p, q)], measures)
        assert combined == add(geu(p, measures), geu(q, measures))

    @given(dyadic_measure_rows(), st.data())
    def test_power_of_two_scaling(self, measures, data):
        n = len(measures)
        p = [float(data.draw(st.integers(0, GRID))) for _ in range(n)]
        k = data.draw(st.integers(0, 8))
        c = 2.0**k
        base = geu(p, measures)
        assert geu([c * x for x in p], measures) == GUInterval(
            c * base.left, c * base.right
        )


@st.composite
def tied_geu_lists(draw):
    """A tolerance and 0 to 12 intervals, some of them copies of an earlier
    one with each endpoint moved by up to that tolerance."""
    tol = draw(st.one_of(
        st.sampled_from([0.0, DEFAULT_TOLERANCE]),
        st.integers(0, 16).map(lambda k: k / 16),
        unit_floats,
    ))
    geus = draw(st.lists(st.one_of(coarse_intervals(), proper_intervals()), max_size=12))
    for k in range(1, len(geus)):
        if draw(st.booleans()):
            base = geus[draw(st.integers(0, k - 1))]
            left = base.left + tol * draw(unit_floats)
            right = base.right + tol * draw(unit_floats)
            geus[k] = GUInterval(*sorted((left, right)))
    return geus, tol


class TestRelationMatrix:
    @given(tied_geu_lists())
    def test_equals_every_pair_compared(self, drawn):
        geus, tol = drawn
        expected = tuple(tuple(compare(a, b, tol) for b in geus) for a in geus)
        assert relation_matrix(geus, tol) == expected

    @pytest.mark.parametrize(
        "geus, tol",
        [
            ([GUInterval(0.6, 0.4)], DEFAULT_TOLERANCE),  # an inverse interval
            ([GUInterval(0.1, 0.2)], math.nan),
        ],
    )
    def test_one_interval_is_still_checked(self, geus, tol):
        with pytest.raises(IntervalError):
            relation_matrix(geus, tol)

    @pytest.mark.parametrize(
        "geus",
        [
            [],
            [GUInterval(0.2, 0.4)],
            [GUInterval(0.2, 0.4), GUInterval(0.2, 0.4)],
            [GUInterval(0.2, 0.4), GUInterval(0.5, 0.5)],
        ],
        ids=["m0", "m1", "m2-equal", "m2-apart"],
    )
    def test_fewest_intervals(self, geus):
        expected = tuple(tuple(compare(a, b) for b in geus) for a in geus)
        assert relation_matrix(geus) == expected

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOLERANCE, 0.25])
    @pytest.mark.parametrize("row", [(1.0, 3.0), (0.5, 0.5), (-2.0, 7.5), (0.25, 0.5)])
    def test_table_is_the_classifier_on_endpoint_regions(self, row, tol):
        """Each code ``4 * left region + right region`` maps to what
        ``_classify`` returns for every column whose endpoints fall in those
        regions, where a region counts the row's endpoint tests that hold."""
        a, b = row
        grid = sorted({a, b, a - tol, a + tol, b - tol, b + tol, *(k / 4 for k in range(-12, 40))})
        for x in grid:
            left = (a - x <= tol) + (x - a > tol) + (x - b > tol)
            for y in grid:
                right = (a - y <= tol) + (b - y <= tol) + (y - b > tol)
                expected = decisions._RELATIONS[4 * left + right]
                assert _classify(a, b, x, y, tol) is expected

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOLERANCE, 0.25])
    def test_many_tied_intervals(self, tol):
        """About 300 intervals on a coarse grid: exact ties, shared
        endpoints and zero widths, beyond what ``tied_geu_lists`` draws."""
        rng = np.random.default_rng(7)
        points = rng.integers(0, 9, size=(300, 2)) / 8
        geus = [GUInterval(*sorted(p)) for p in points.tolist()]
        assert sum(g.left == g.right for g in geus) > 10
        expected = tuple(tuple(compare(a, b, tol) for b in geus) for a in geus)
        assert relation_matrix(geus, tol) == expected


@given(tied_geu_lists())
def test_classifier_matches_compare(drawn):
    geus, tol = drawn
    for i1 in geus:
        for i2 in geus:
            assert _classify(i1.left, i1.right, i2.left, i2.right, tol) is compare(i1, i2, tol)


@given(tied_geu_lists())
def test_dominance_is_two_endpoint_tests(drawn):
    """The law ``decide`` reads every stage off."""
    geus, tol = drawn
    for i in geus:
        for j in geus:
            rel = compare(j, i, tol)
            assert (rel in (Relation.STRONGLY_GREATER, Relation.WEAKLY_GREATER)) == (
                j.right - i.right > tol and i.left - j.left <= tol
            )
            assert (rel is Relation.STRONGLY_GREATER) == (j.left - i.right > tol)


@st.composite
def decision_problems(draw, positive=False):
    """Problems mixing grid values, which tie often, with generic floats.

    With ``positive``, every payoff is at least 1 and every left endpoint at
    least 1/16, so every GEU lies strictly above ``[0, 0]`` by more than the
    tolerance.
    """
    low = 1 if positive else 0
    endpoint = st.one_of(
        st.integers(low, 16).map(lambda k: k / 16), st.floats(low / 16, 1.0)
    )
    payoff = st.one_of(st.integers(low, 8).map(float), st.floats(low, 1000.0))
    n = draw(st.integers(1, 4))
    natures = tuple(
        NatureStatus(f"N{j}", GUInterval(*sorted((draw(endpoint), draw(endpoint)))))
        for j in range(n)
    )
    schemes = tuple(
        Scheme(f"S{i}", tuple(draw(payoff) for _ in range(n)))
        for i in range(draw(st.integers(1, 6)))
    )
    tolerances = [0.0, DEFAULT_TOLERANCE, 1 / 32] + ([] if positive else [0.5])
    return DecisionProblem(
        natures,
        schemes,
        attitude=draw(st.sampled_from(ATTITUDES)),
        tolerance=draw(st.sampled_from(tolerances)),
    )


def _outcome(report):
    return report.selected, report.rationale, report.note


def _selection(report):
    """The outcome and the comparison column, shaped as
    :func:`_three_scan_selection` returns them."""
    column = [
        None if entry is None else (entry.scheme, entry.versus, entry.relation)
        for entry in report.comparison_column
    ]
    return (*_outcome(report), column)


# GEU i is [i / 2, 1000 - i / 10]: each lies inside the one before, so no
# scheme dominates and all 40 survive to the attitude stage.
NESTED = DecisionProblem(
    (NatureStatus("a", GUInterval(0.5, 0.5)), NatureStatus("b", GUInterval(0.0, 1.0))),
    tuple(Scheme(f"S{i}", (float(i), 1000 - 0.6 * i)) for i in range(40)),
    attitude="averse",
)


def _three_scan_selection(problem, report):
    """Reference selection: stages 1 to 3 as separate scans of
    ``report.relations``, each scheme in turn, then the comparison column."""
    relations, m = report.relations, len(problem.schemes)
    names = [s.name for s in problem.schemes]
    dominant = (Relation.STRONGLY_GREATER, Relation.WEAKLY_GREATER)

    def wins(i, allowed):
        return all(relations[i][j] in allowed for j in range(m) if j != i)

    note = None
    for allowed, rationale in (
        ((Relation.STRONGLY_GREATER,), SelectionRationale.STRONGLY_ADVANTAGE),
        (dominant, SelectionRationale.WEAKLY_ADVANTAGE),
    ):
        selected = next((i for i in range(m) if wins(i, allowed)), None)
        if selected is not None:
            break
    else:
        survivors = [
            i for i in range(m)
            if not any(relations[j][i] in dominant for j in range(m) if j != i)
        ]
        widths = [gud(report.geus[i]) for i in survivors]
        averse = problem.attitude == "averse"
        target = min(widths) if averse else max(widths)
        tied = [i for i, w in zip(survivors, widths) if abs(w - target) <= problem.tolerance]
        selected = tied[0]
        rationale = (
            SelectionRationale.RISK_AVERSE_MIN_GUD
            if averse
            else SelectionRationale.RISK_SEEKING_MAX_GUD
        )
        if len(tied) > 1:
            note = (
                "uncertainty degree tie between "
                + ", ".join(names[i] for i in tied)
                + "; earliest scheme kept"
            )
    column, best = [None], 0
    for i in range(1, m):
        rel = relations[i][best]
        column.append((names[i], names[best], rel))
        if rel in dominant:
            best = i
    return names[selected], rationale, note, column


class TestDecideMetamorphic:
    @settings(max_examples=300)
    @given(decision_problems())
    @example(
        DecisionProblem(
            (NatureStatus("N0", GUInterval(0.5, 0.5)),),
            (Scheme("S0", (1.0,)),),
            attitude="averse",
        )
    )
    @example(NESTED)
    def test_selection_equals_three_scans_of_the_matrix(self, problem):
        report = decide(problem)
        assert _selection(report) == _three_scan_selection(problem, report)

    @settings(max_examples=300)
    @given(tied_geu_lists(), st.sampled_from(ATTITUDES))
    def test_tied_geus_select_as_three_scans_of_the_matrix(self, drawn, attitude):
        geus, tol = drawn
        assume(geus)
        problem = DecisionProblem(
            (NatureStatus("N0", GUInterval(0.5, 0.5)),),
            tuple(Scheme(f"S{i}", (1.0,)) for i in range(len(geus))),
            attitude=attitude,
            tolerance=tol,
        )
        with mock.patch.object(decisions, "geu", side_effect=geus):
            report = decide(problem)
        assert report.geus == tuple(geus)
        assert _selection(report) == _three_scan_selection(problem, report)

    @given(decision_problems())
    @example(NESTED)
    def test_compares_once_per_column_entry(self, problem):
        with mock.patch.object(decisions, "compare", wraps=decisions.compare) as counted:
            decide(problem)
        assert counted.call_count == len(problem.schemes) - 1

    @given(decision_problems())
    def test_stages_one_and_two_compare_at_most_twice_per_rival(self, problem):
        with mock.patch.object(decisions, "compare", wraps=decisions.compare) as counted:
            report = decide(problem)
        assume(report.rationale in (
            SelectionRationale.STRONGLY_ADVANTAGE, SelectionRationale.WEAKLY_ADVANTAGE
        ))
        assert counted.call_count <= 2 * (len(problem.schemes) - 1)
        assert counted.call_count == len(problem.schemes) - 1

    @given(decision_problems(), st.data())
    def test_nature_permutation_changes_nothing(self, problem, data):
        order = data.draw(st.permutations(range(len(problem.natures))))
        permuted = DecisionProblem(
            tuple(problem.natures[j] for j in order),
            tuple(
                Scheme(s.name, tuple(s.payoffs[j] for j in order))
                for s in problem.schemes
            ),
            attitude=problem.attitude,
            tolerance=problem.tolerance,
        )
        before, after = decide(problem), decide(permuted)
        assert after.geus == before.geus
        assert _outcome(after) == _outcome(before)

    @given(decision_problems(), st.data())
    def test_scheme_permutation_changes_selection_only_on_ties(self, problem, data):
        order = data.draw(st.permutations(range(len(problem.schemes))))
        permuted = DecisionProblem(
            problem.natures,
            tuple(problem.schemes[i] for i in order),
            attitude=problem.attitude,
            tolerance=problem.tolerance,
        )
        before, after = decide(problem), decide(permuted)
        assert after.rationale == before.rationale
        if after.selected != before.selected:
            assert before.note is not None and after.note is not None

    @given(decision_problems(positive=True))
    def test_appending_a_dominated_scheme_changes_nothing(self, problem):
        loser = Scheme("loser", (0.0,) * len(problem.natures))
        extended = DecisionProblem(
            problem.natures,
            problem.schemes + (loser,),
            attitude=problem.attitude,
            tolerance=problem.tolerance,
        )
        after = decide(extended)
        assert all(
            row[-1] is Relation.STRONGLY_GREATER for row in after.relations[:-1]
        )
        assert _outcome(after) == _outcome(decide(problem))


@st.composite
def quadratic_envelopes(draw):
    coeffs = [draw(st.floats(-2.0, 2.0, allow_nan=False)) for _ in range(3)]
    gap = draw(st.floats(0.0, 1.0, allow_nan=False))

    def lower(x, c=tuple(coeffs)):
        return c[0] + c[1] * x + c[2] * x * x

    def upper(x):
        return lower(x) + gap

    return GUFunctionEnvelope(lower=lower, upper=upper, domain=(0.0, 1.0))


class TestCalculusInvariants:
    @settings(max_examples=25, deadline=None)
    @given(quadratic_envelopes(), st.floats(0.1, 0.9, allow_nan=False))
    def test_integral_splits_additively(self, env, split):
        whole = gu_integral(env, 0.0, 1.0)
        first = gu_integral(env, 0.0, split)
        second = gu_integral(env, split, 1.0)
        assert abs(first.left + second.left - whole.left) <= 1e-6
        assert abs(first.right + second.right - whole.right) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(quadratic_envelopes(), st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False))
    def test_integral_ordered(self, env, a, b):
        lo, hi = sorted((a, b))
        got = gu_integral(env, lo, hi)
        assert got.is_proper


def quadratic_density(a, b, gap, lo, width):
    """A density envelope on ``[lo, lo + width]``; the lower core is the
    square of a line, so it is a nonnegative quadratic."""

    def lower(x):
        return (a + b * x) ** 2

    def upper(x):
        return lower(x) + gap

    return GUFunctionEnvelope(lower, upper, (lo, lo + width), kind="density")


def quadratic_densities():
    return st.builds(
        quadratic_density,
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.0, 1.0),
        st.floats(-10.0, 10.0),
        st.floats(1e-3, 20.0),
    )


# numpy 2 renamed trapz to trapezoid; the reference runs on either.
_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# Below 2**-1022 every float is a multiple of the unit u = 2**-1074 and a
# relative bound means nothing: 1e-12 of a subnormal integral is below u.
# numpy rounds each of its RESOLUTION - 1 segment terms d * (y0 + y1) / 2
# twice, by up to u / 2 each time; the rule under test rounds each of its
# RESOLUTION weighted terms by up to u / 2 and then halves the sum.  The two
# differ by at most about 1.25 u per grid point, so allow 2 u.
_SUBNORMAL_FLOOR = 2 * RESOLUTION * math.ulp(0.0)


def _close_to_trapezoid(got, ys, xs):
    ref = _np_trapezoid(ys, xs)
    scale = _np_trapezoid(np.abs(ys), xs)
    return abs(got - ref) <= 1e-12 * scale + _SUBNORMAL_FLOOR


class TestQuadratureAgainstNumpy:
    @settings(max_examples=60, deadline=None)
    @given(quadratic_densities(), unit_floats, unit_floats)
    # Here lo + 1024 * step rounds to 3.7000000000000006: the grid must end
    # at hi itself, as linspace does.
    @example(
        GUFunctionEnvelope(lambda x: 1.0, lambda x: 2.0, (-1.6, 3.7), kind="density"),
        0.0,
        1.0,
    )
    # Subnormal integrands, where only the absolute floor holds.
    @example(quadratic_density(0.0, 1e-155, 0.0, 0.0, 0.5), 0.0, 0.5)
    @example(quadratic_density(0.0, 0.0, 2.2250738585072014e-308, 0.0, 1e-3), 0.0, 0.75)
    @example(quadratic_density(1e-156, -1e-156, 0.0, -2.225073858507e-311, 3.0), 0.0, 1.0)
    # The window [0, 5e-324], whose half gaps round to zero.
    @example(quadratic_density(2.0, 0.0, 1.0, 0.0, 0.5), 0.0, 1e-323)
    def test_grid_and_trapezoid_match_numpy(self, env, s, t):
        lo, hi = env.domain
        assert env.grid() == np.linspace(lo, hi, RESOLUTION).tolist()
        a, b = sorted(min(hi, lo + u * (hi - lo)) for u in (s, t))
        xs = np.linspace(a, b, RESOLUTION)
        got = gu_integral(env, a, b)
        assert _close_to_trapezoid(got.left, np.array([env.lower(x) for x in xs]), xs)
        assert _close_to_trapezoid(got.right, np.array([env.upper(x) for x in xs]), xs)
        xs = np.linspace(lo, hi, RESOLUTION)
        weighted = np.array([[x * env.lower(x), x * env.upper(x)] for x in xs])
        got = density_expectation(env)
        assert _close_to_trapezoid(got.left, weighted.min(axis=1), xs)
        assert _close_to_trapezoid(got.right, weighted.max(axis=1), xs)


@st.composite
def nested_chains(draw):
    length = draw(st.integers(2, 15))
    left, right = 0.0, 1.0
    chain = [GUInterval(left, right)]
    for _ in range(length - 1):
        width = right - left
        left = left + width * draw(st.floats(0.01, 0.4))
        right = right - width * draw(st.floats(0.01, 0.4))
        chain.append(GUInterval(left, right))
    return chain


class TestNestedLimitInvariants:
    @given(nested_chains())
    def test_estimate_inside_every_interval(self, chain):
        got = nested_limit(chain)
        assert chain[0].left <= got.estimate <= chain[0].right
        assert chain[-1].left <= got.estimate <= chain[-1].right
        assert got.error_bound == 0.5 * gud(chain[-1])


class TestClassifyInvariants:
    @given(
        st.lists(
            st.tuples(unit_floats, unit_floats).map(lambda p: tuple(sorted(p))),
            max_size=25,
        ),
        st.floats(0.0, 0.5, allow_nan=False),
    )
    def test_partition_pivots_and_completeness(self, pairs, delta):
        items = [GUInterval(a, b) for a, b in pairs]
        classes = classify(items, delta)
        flat = [i for members in classes for i in members]
        assert sorted(flat) == list(range(len(items)))
        seen: set[int] = set()
        for members in classes:
            pivot = members[0]
            assert pivot == min(i for i in range(len(items)) if i not in seen)
            for i in members:
                assert delta_neighbour(items[pivot], items[i], delta)
            seen.update(members)
        # nothing classed later may neighbour an earlier pivot
        for k, members in enumerate(classes):
            pivot = members[0]
            later = [i for other in classes[k + 1:] for i in other]
            for i in later:
                assert not delta_neighbour(items[pivot], items[i], delta)

    @settings(max_examples=60, deadline=None)
    @given(
        classing_items(),
        st.one_of(
            st.just(0.0),
            st.integers(0, 200).map(lambda k: k / 100),
            st.sampled_from([5e-324, 1e308, math.inf, 10**400]),
        ),
    )
    # The float gap 1 - (-2**-54) rounds down to delta = 1, so the second
    # item joins although its exact gap exceeds delta.
    @example([(1.0, 1.0), (-(2.0**-54), -(2.0**-54))], 1.0)
    # Gaps between these endpoints overflow to inf.
    @example([(-1.7e308, -1.7e308), (1.7e308, 1.7e308), (-1.7e308, 1.7e308)], 1e308)
    @example([(-1.7e308, -1.7e308), (1.7e308, 1.7e308), (-1.7e308, 1.7e308)], math.inf)
    def test_equals_full_greedy_sweep(self, pairs, delta):
        items = [GUInterval(a, b) for a, b in pairs]
        expected = []
        remaining = list(range(len(items)))
        while remaining:
            pivot = remaining[0]
            members = [
                i for i in remaining if delta_neighbour(items[pivot], items[i], delta)
            ]
            expected.append(members)
            remaining = [i for i in remaining if i not in members]
        assert classify(items, delta) == expected


@st.composite
def dyadic_joint_laws(draw):
    """Coherent joint laws with cell masses on a 1/1024 grid and generic
    support values."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    rows = sorted(draw(st.sets(values, min_size=n, max_size=n)))
    cols = sorted(draw(st.sets(values, min_size=m, max_size=m)))
    cap = GRID // (n * m)
    lefts = [draw(st.integers(0, cap)) for _ in range(n * m)]
    bump = -(-(GRID - sum(lefts)) // (n * m))
    masses = [
        GUInterval(a / GRID, min(GRID, a + bump + draw(st.integers(0, 200))) / GRID)
        for a in lefts
    ]
    cells = tuple(tuple(masses[i * m:(i + 1) * m]) for i in range(n))
    return JointDiscreteGUVariable(tuple(rows), tuple(cols), cells)


def _covariance_with_two_fsums(joint):
    """Reference covariance: each raw endpoint is its own ``math.fsum``."""
    rows, cols = joint.marginals()
    e1 = endpoint_sum(rows, joint.row_values)
    e2 = endpoint_sum(cols, joint.col_values)
    cells = [
        (x, y, joint.cells[i][j])
        for i, x in enumerate(joint.row_values)
        for j, y in enumerate(joint.col_values)
    ]
    raw = GUInterval(
        math.fsum((x - e1.left) * (y - e2.left) * m.left for x, y, m in cells),
        math.fsum((x - e1.right) * (y - e2.right) * m.right for x, y, m in cells),
    )
    return normalize(raw), not raw.is_proper


class TestCovarianceReference:
    @given(dyadic_joint_laws())
    def test_equals_two_fsum_reference(self, joint):
        assert covariance(joint) == _covariance_with_two_fsums(joint)


# The library's numeric contract: on any finite input a public function
# returns finite numbers or raises a GutError, never another exception.

EXTREMES = [1.7e308, -1.7e308, 2.0**-1022, 5e-324, -5e-324, 0.0, -0.0]
any_floats = st.one_of(
    st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)
)
supports = st.lists(any_floats, min_size=1, max_size=3, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


def _numbers(result):
    if isinstance(result, GUInterval):
        return [result.left, result.right]
    if isinstance(result, tuple):
        return [x for part in result for x in _numbers(part)]
    return [] if isinstance(result, bool) else [result]


def _finite_or_gut_error(call):
    try:
        result = call()
    except GutError:
        return
    assert all(math.isfinite(x) for x in _numbers(result)), result


@st.composite
def coherent_masses(draw, n):
    """``n`` masses whose lower endpoints sum to at most 1; the upper
    endpoints are often 1, so the law usually holds."""
    lefts = [draw(st.floats(0.0, 1.0 / n)) for _ in range(n)]
    rights = [draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) for _ in range(n)]
    return tuple(GUInterval(a, max(a, b)) for a, b in zip(lefts, rights))


@st.composite
def extreme_joint_laws(draw):
    rows, cols = draw(supports), draw(supports)
    masses = draw(coherent_masses(len(rows) * len(cols)))
    cells = tuple(masses[i * len(cols):(i + 1) * len(cols)] for i in range(len(rows)))
    return rows, cols, cells


@st.composite
def linear_envelopes(draw):
    """Arguments of an envelope whose cores are ``slope * x + intercept``
    and that plus a gap, both undefined (NaN) at an optional hole, with
    points to evaluate it at."""
    lo, hi = sorted((draw(any_floats), draw(any_floats)))
    between = st.floats(lo, hi) if lo < hi else st.just(lo)
    slope = draw(st.one_of(st.just(0.0), any_floats))
    intercept, gap = draw(any_floats), abs(draw(any_floats))
    hole = draw(st.one_of(st.none(), between))
    kind = draw(st.sampled_from(["free", "density"]))
    inside = st.one_of(st.sampled_from([lo, hi, lo if hole is None else hole]), between)
    points = (draw(inside), draw(inside), draw(inside), draw(any_floats))
    return (lo, hi), (slope, intercept, gap, hole), kind, points


@st.composite
def extreme_chains(draw):
    """Nested chains over the whole float range, sometimes shuffled out of
    order."""
    ends = sorted(draw(st.lists(any_floats, min_size=2, max_size=12)))
    chain = [(ends[i], ends[-1 - i]) for i in range(len(ends) // 2)]
    return draw(st.permutations(chain)) if draw(st.booleans()) else chain


class TestNumericContract:
    @given(supports, st.data())
    def test_discrete_variable(self, values, data):
        masses = data.draw(coherent_masses(len(values)))

        def call():
            variable = DiscreteGUVariable(values, masses)
            return variable.expectation(), variable.distribution_at(values[-1])

        _finite_or_gut_error(call)

    @given(extreme_joint_laws())
    @example(((-1e200, 1e200), (-1e200, 1e200), ((GUInterval(0.25, 0.25),) * 2,) * 2))
    def test_covariance(self, law):
        _finite_or_gut_error(lambda: covariance(JointDiscreteGUVariable(*law)))

    @settings(max_examples=150, deadline=None)
    @given(linear_envelopes())
    @example(((0.0, 1.0), (0.0, 1.7e308, 0.0, 0.3), "free", (0.3, 0.0, 1.0, 0.5)))
    def test_envelope_calculus(self, drawn):
        domain, (slope, intercept, gap, hole), kind, (x0, a, b, delta) = drawn

        def lower(x):
            return math.nan if x == hole else slope * x + intercept

        def upper(x):
            return lower(x) + gap

        try:
            env = GUFunctionEnvelope(lower, upper, domain, kind)
        except GutError:
            return
        _finite_or_gut_error(lambda: gu_limit(env, x0))
        _finite_or_gut_error(lambda: gu_derivative(env, x0))
        _finite_or_gut_error(lambda: gu_variation(env, x0, delta))
        _finite_or_gut_error(lambda: gu_integral(env, *sorted((a, b))))
        if kind == "density":
            _finite_or_gut_error(lambda: density_expectation(env))

    @given(extreme_chains())
    @example([(-1.7e308, 1.7e308)])
    @example([(1.7e308, 1.7e308)])
    def test_nested_limit(self, chain):
        for iv in chain:
            _finite_or_gut_error(lambda: gud(GUInterval(*iv)))
        try:
            got = nested_limit(chain)
        except GutError:
            return
        last = chain[-1]
        assert last[0] <= got.estimate <= last[1]
        assert 0.0 <= got.error_bound < math.inf


@given(decision_problems())
@example(NESTED)
def test_json_rows_are_the_values_of_the_matrix(problem):
    report = decide(problem)
    rows = decisions.report_to_dict(report)["relations"]
    matrix = relation_matrix(report.geus, report.tolerance)
    assert [list(row) for row in rows] == [[rel.value for rel in row] for row in matrix]
