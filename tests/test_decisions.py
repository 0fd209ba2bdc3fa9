"""The expected-utility selection procedure and its report."""

import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gutheory import decisions
from gutheory import (
    AttitudeRequiredError,
    DecisionProblem,
    GUInterval,
    NatureStatus,
    Relation,
    Scheme,
    SelectionRationale,
    ValidationError,
    compare,
    decide,
    geu,
    gud,
    relation_matrix,
    render_decision_table,
    report_to_dict,
)

NATURES = (
    NatureStatus("Status 1", GUInterval(0.1, 0.2)),
    NatureStatus("Status 2", GUInterval(0.2, 0.3)),
    NatureStatus("Status 3", GUInterval(0.5, 0.7)),
)
MEASURES = [n.gum for n in NATURES]

FOUR_SCHEMES = (
    Scheme("S1", (100.0, 80.0, 90.0)),
    Scheme("S2", (120.0, 130.0, 110.0)),
    Scheme("S3", (150.0, 150.0, 120.0)),
    Scheme("S4", (160.0, 90.0, 140.0)),
)

FIFTH = Scheme("S5", (0.0, 530.0, 0.0))


@pytest.fixture
def four_problem():
    return DecisionProblem(NATURES, FOUR_SCHEMES)


@pytest.fixture
def five_problem():
    return DecisionProblem(NATURES, FOUR_SCHEMES + (FIFTH,), attitude="averse")


class TestGeu:
    def test_known_rows(self):
        assert geu((100, 80, 90), MEASURES) == GUInterval(71.0, 107.0)
        assert geu((120, 130, 110), MEASURES) == GUInterval(93.0, 140.0)
        assert geu((150, 150, 120), MEASURES) == GUInterval(105.0, 159.0)
        assert geu((160, 90, 140), MEASURES) == GUInterval(104.0, 157.0)
        assert geu((0, 530, 0), MEASURES) == GUInterval(106.0, 159.0)

    def test_accepts_bare_intervals(self):
        measures = [(0.1, 0.2), (0.2, 0.3), (0.5, 0.7)]
        assert geu((100, 80, 90), measures) == GUInterval(71.0, 107.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            geu((1.0, 2.0), MEASURES)

    def test_negative_payoff(self):
        with pytest.raises(ValidationError):
            geu((-1.0, 2.0, 3.0), MEASURES)

    def test_non_finite_payoff(self):
        with pytest.raises(ValidationError):
            geu((math.inf, 2.0, 3.0), MEASURES)


class TestFourSchemeSelection:
    def test_geus(self, four_problem):
        report = decide(four_problem)
        assert report.geus == (
            GUInterval(71.0, 107.0),
            GUInterval(93.0, 140.0),
            GUInterval(105.0, 159.0),
            GUInterval(104.0, 157.0),
        )

    def test_selection(self, four_problem):
        report = decide(four_problem)
        assert report.selected == "S3"
        assert report.rationale is SelectionRationale.WEAKLY_ADVANTAGE
        assert report.selected_index == 2
        assert report.note is None

    def test_comparison_column(self, four_problem):
        column = decide(four_problem).comparison_column
        assert column[0] is None
        assert (column[1].scheme, column[1].versus) == ("S2", "S1")
        assert column[1].relation is Relation.WEAKLY_GREATER
        assert (column[2].scheme, column[2].versus) == ("S3", "S2")
        assert column[2].relation is Relation.WEAKLY_GREATER
        assert (column[3].scheme, column[3].versus) == ("S4", "S3")
        assert column[3].relation is Relation.WEAKLY_SMALLER

    def test_relations_row(self, four_problem):
        report = decide(four_problem)
        assert all(
            report.relations[2][j] is Relation.WEAKLY_GREATER for j in (0, 1, 3)
        )


class TestFiveSchemeSelection:
    def test_fifth_geu_and_containment(self, five_problem):
        report = decide(five_problem)
        assert report.geus[4] == GUInterval(106.0, 159.0)
        assert report.relations[4][2] is Relation.PARTLY_SMALLER
        assert report.relations[2][4] is Relation.PARTLY_GREATER

    def test_uncertainty_degrees(self, five_problem):
        report = decide(five_problem)
        assert gud(report.geus[2]) == 54.0
        assert gud(report.geus[4]) == 53.0

    def test_risk_averse_picks_narrow(self, five_problem):
        report = decide(five_problem)
        assert report.selected == "S5"
        assert report.rationale is SelectionRationale.RISK_AVERSE_MIN_GUD
        assert report.attitude == "averse"

    def test_risk_seeking_picks_wide(self):
        problem = DecisionProblem(NATURES, FOUR_SCHEMES + (FIFTH,), attitude="seeking")
        report = decide(problem)
        assert report.selected == "S3"
        assert report.rationale is SelectionRationale.RISK_SEEKING_MAX_GUD

    def test_comparison_column_keeps_best(self, five_problem):
        column = decide(five_problem).comparison_column
        # S4 and S5 both compare against S3, the best so far
        assert (column[3].scheme, column[3].versus) == ("S4", "S3")
        assert (column[4].scheme, column[4].versus) == ("S5", "S3")
        assert column[4].relation is Relation.PARTLY_SMALLER

    def test_sums_the_checked_problem_without_checking_it_again(self, five_problem):
        # DecisionProblem checked every measure and payoff when it was built.
        expected = decide(five_problem)
        refuse = mock.Mock(side_effect=AssertionError("checked again"))
        with mock.patch.object(decisions, "geu", refuse), \
                mock.patch.object(decisions, "as_interval", refuse):
            assert decide(five_problem) == expected

    def test_attitude_required_without_one(self):
        problem = DecisionProblem(NATURES, FOUR_SCHEMES + (FIFTH,))
        with pytest.raises(AttitudeRequiredError) as err:
            decide(problem)
        assert "S3" in str(err.value) and "S5" in str(err.value)


class TestOtherSelections:
    def test_strong_advantage(self):
        natures = (
            NatureStatus("a", GUInterval(0.5, 0.5)),
            NatureStatus("b", GUInterval(0.5, 0.5)),
        )
        problem = DecisionProblem(
            natures, (Scheme("low", (1.0, 1.0)), Scheme("high", (10.0, 10.0)))
        )
        report = decide(problem)
        assert report.selected == "high"
        assert report.rationale is SelectionRationale.STRONGLY_ADVANTAGE

    def test_single_scheme_vacuous_strong(self):
        problem = DecisionProblem(NATURES[:1], (Scheme("only", (5.0,)),))
        report = decide(problem)
        assert report.selected == "only"
        assert report.rationale is SelectionRationale.STRONGLY_ADVANTAGE
        assert report.comparison_column == (None,)

    def test_equal_geus_tie_note(self):
        natures = (NatureStatus("a", GUInterval(0.2, 0.4)),)
        problem = DecisionProblem(
            natures,
            (Scheme("first", (10.0,)), Scheme("second", (10.0,))),
            attitude="averse",
        )
        report = decide(problem)
        assert report.selected == "first"
        assert report.note is not None and "tie" in report.note

    def test_attitude_ignored_when_dominance_exists(self):
        natures = (NatureStatus("a", GUInterval(0.5, 0.5)),)
        problem = DecisionProblem(
            natures,
            (Scheme("low", (1.0,)), Scheme("high", (10.0,))),
            attitude="seeking",
        )
        report = decide(problem)
        assert report.selected == "high"
        assert report.rationale is SelectionRationale.STRONGLY_ADVANTAGE
        assert report.attitude == "seeking"

    def test_stage_three_compares_each_pair_at_most_once(self, monkeypatch):
        # GEU i is [i / 2, 1000 - i / 10]: each lies inside the one before,
        # so no scheme dominates and all m survive to the attitude stage.
        m = 40
        natures = (
            NatureStatus("a", GUInterval(0.5, 0.5)),
            NatureStatus("b", GUInterval(0.0, 1.0)),
        )
        schemes = tuple(Scheme(f"S{i}", (float(i), 1000 - 0.6 * i)) for i in range(m))
        calls = []

        def counted(*args):
            calls.append(args)
            return compare(*args)

        monkeypatch.setattr(decisions, "compare", counted)
        report = decide(DecisionProblem(natures, schemes, attitude="averse"))
        assert report.selected == f"S{m - 1}"
        assert report.rationale is SelectionRationale.RISK_AVERSE_MIN_GUD
        # Stage 3 reads the endpoint law and compares no pair; the only
        # calls are the comparison column's m - 1, each pair once.
        assert len(calls) == m - 1
        assert len({(id(a), id(b)) for a, b, *_ in calls}) == m - 1


class TestInvariance:
    def test_payoff_scaling_preserves_selection(self, five_problem):
        base = decide(five_problem)
        for c in (0.5, 3.7, 128.0):
            scaled = DecisionProblem(
                NATURES,
                tuple(
                    Scheme(s.name, tuple(c * p for p in s.payoffs))
                    for s in five_problem.schemes
                ),
                attitude="averse",
            )
            report = decide(scaled)
            assert report.selected == base.selected
            assert report.rationale is base.rationale

    def test_degenerate_natures_match_classical_argmax(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            raw = rng.uniform(0.05, 1.0, size=n)
            probs = raw / raw.sum()
            natures = tuple(
                NatureStatus(f"n{j}", GUInterval(probs[j], probs[j]))
                for j in range(n)
            )
            payoffs = rng.uniform(0.0, 100.0, size=(m, n))
            schemes = tuple(
                Scheme(f"s{i}", tuple(float(p) for p in payoffs[i])) for i in range(m)
            )
            expected = [float(np.dot(payoffs[i], probs)) for i in range(m)]
            best = max(range(m), key=lambda i: expected[i])
            for attitude in ("averse", "seeking"):
                report = decide(DecisionProblem(natures, schemes, attitude=attitude))
                assert report.selected == f"s{best}"
            for i in range(m):
                got = geu(schemes[i].payoffs, [n.gum for n in natures])
                assert got.left == pytest.approx(expected[i], abs=1e-9)
                assert got.left == got.right


class TestValidationAndParsing:
    @pytest.mark.parametrize("tolerance", [math.inf, -1e-3, math.nan])
    def test_rejects_unusable_tolerance(self, tolerance):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            DecisionProblem(NATURES, FOUR_SCHEMES, tolerance=tolerance)

    def test_duplicate_scheme_names(self):
        with pytest.raises(ValidationError):
            DecisionProblem(
                NATURES[:1], (Scheme("x", (1.0,)), Scheme("x", (2.0,)))
            )

    def test_duplicate_nature_names(self):
        with pytest.raises(ValidationError):
            DecisionProblem(
                (NatureStatus("a", GUInterval(0.1, 0.2)), NatureStatus("a", GUInterval(0.2, 0.3))),
                (Scheme("x", (1.0, 2.0)),),
            )

    def test_payoff_count_mismatch(self):
        with pytest.raises(ValidationError) as err:
            DecisionProblem(NATURES, (Scheme("x", (1.0, 2.0)),))
        assert "3 statuses" in str(err.value)

    def test_invalid_measure(self):
        with pytest.raises(ValidationError):
            DecisionProblem(
                (NatureStatus("a", GUInterval(0.5, 1.5)),), (Scheme("x", (1.0,)),)
            )

    def test_bad_attitude(self):
        with pytest.raises(ValidationError):
            DecisionProblem(NATURES[:1], (Scheme("x", (1.0,)),), attitude="bold")

    def test_empty_parts(self):
        with pytest.raises(ValidationError):
            DecisionProblem((), (Scheme("x", ()),))
        with pytest.raises(ValidationError, match="^at least one scheme is required$"):
            DecisionProblem(NATURES, ())

    def test_from_dict(self):
        document = {
            "natures": [
                {"name": "Status 1", "gum": [0.1, 0.2]},
                {"name": "Status 2", "gum": [0.2, 0.3]},
                {"name": "Status 3", "gum": [0.5, 0.7]},
            ],
            "schemes": [
                {"name": "S1", "payoffs": [100, 80, 90]},
                {"name": "S3", "payoffs": [150, 150, 120]},
            ],
            "attitude": "seeking",
        }
        problem = DecisionProblem.from_dict(document)
        assert problem.attitude == "seeking"
        assert problem.schemes[1].payoffs == (150.0, 150.0, 120.0)
        override = DecisionProblem.from_dict(document, attitude="averse")
        assert override.attitude == "averse"


class TestReporting:
    def test_relation_matrix_shape(self, four_problem):
        geus = decide(four_problem).geus
        matrix = relation_matrix(geus)
        assert all(matrix[i][i] is Relation.EQUAL for i in range(4))
        for i in range(4):
            for j in range(4):
                assert matrix[i][j].mirrored is matrix[j][i]

    def test_report_to_dict(self, five_problem):
        payload = report_to_dict(decide(five_problem))
        assert payload["selected"] == "S5"
        assert payload["rationale"] == "RiskAverseMinGud"
        assert payload["geus"][2] == [105.0, 159.0]
        assert payload["comparisons"][0] is None
        assert payload["comparisons"][4]["relation"] == "PartlySmaller"
        assert payload["attitude"] == "averse"

    def test_render_table(self, five_problem):
        text = render_decision_table(five_problem, decide(five_problem))
        assert "[105,159]" in text
        assert "[106,159]" in text
        assert "selected: S5" in text
        assert "GEU4 ≤ GEU3" in text
        assert "GEU5 ⪯ GEU3" in text
        assert "Status 2" in text

    def test_relation_symbols_print_one_column(self):
        # The table measures its comparison column with len.
        assert all(decisions._width(text) == 1 for text in decisions._SYMBOLS.values())

    @staticmethod
    def table_peak(m: int) -> int:
        """The tracemalloc peak of reading the table of ``m`` nested schemes
        one piece at a time, once the report is built.

        The table is read once untraced first: ``%g`` of an int payoff makes
        a float, and after a full collection has emptied CPython's float free
        list, the first read refills it with a few KB of blocks that a
        traced first read would count.
        """
        problem = DecisionProblem.from_dict({
            "natures": [{"name": "a", "gum": [0.5, 0.5]}, {"name": "b", "gum": [0, 1]}],
            "schemes": [{"name": f"S{i}", "payoffs": [i, 100000 - 0.6 * i]} for i in range(m)],
            "attitude": "averse",
        })
        report = decide(problem)
        for _ in decisions._table_pieces(problem, report):
            pass
        gc.collect()
        tracemalloc.start()
        try:
            for _ in decisions._table_pieces(problem, report):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_table_memory_is_flat_in_schemes(self):
        # The widths and one line are held, not a row, cell or line per
        # scheme, nor a map of the scheme names.  The first reading makes
        # one-time allocations of about 4 KB.
        self.table_peak(1)
        assert self.table_peak(4000) < 2 * self.table_peak(500)
