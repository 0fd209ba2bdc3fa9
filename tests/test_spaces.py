"""Measure spaces: validation modes, event queries, conditioning."""

import math

import pytest

from gutheory import (
    ConditioningError,
    DegeneracyError,
    DiscreteGUVariable,
    EventError,
    GUInterval,
    GUMeasureSpace,
    Relation,
    ValidationError,
    axiom_violations,
    compare,
    mul,
)

THREE_ATOM = {
    "N1": [0.1, 0.2],
    "N2": [0.2, 0.3],
    "N3": [0.5, 0.7],
}


@pytest.fixture
def space():
    return GUMeasureSpace(["N1", "N2", "N3"], THREE_ATOM)


class TestValidation:
    def test_coherent_accepts_bracketing_sums(self, space):
        assert space.mode == "coherent"
        assert space.atoms == ("N1", "N2", "N3")

    def test_strict_rejects_same_assignment(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["N1", "N2", "N3"], THREE_ATOM, mode="strict")
        assert "0.8" in str(err.value)

    def test_strict_accepts_degenerate_distribution(self):
        sp = GUMeasureSpace(["A", "B"], {"A": [0.25, 0.25], "B": [0.75, 0.75]}, mode="strict")
        assert sp.is_degenerate

    def test_coherent_rejects_excess_lower_sum(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["A", "B"], {"A": [0.6, 0.7], "B": [0.6, 0.7]})
        assert "exceeds 1" in str(err.value)

    def test_coherent_rejects_short_upper_sum(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["A", "B"], {"A": [0.1, 0.2], "B": [0.1, 0.2]})
        assert "falls short" in str(err.value)

    def test_all_violations_collected(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace([], {"A": [0.5, 0.2]})
        assert len(err.value.violations) >= 2

    def test_duplicate_atoms(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["A", "A"], {"A": [0.5, 1.0]})
        assert any("duplicate" in v for v in err.value.violations)

    def test_atom_limit(self):
        atoms = [f"a{i}" for i in range(65)]
        GUMeasureSpace(atoms[:64], {a: [0.0, 0.5] for a in atoms[:64]})
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(atoms, {a: [0.0, 0.5] for a in atoms})
        assert err.value.violations == ("65 atoms exceed the limit of 64",)

    def test_missing_and_extra_assignments(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["A", "B"], {"A": [0.5, 1.0], "C": [0.1, 0.2]})
        text = str(err.value)
        assert "without a measure" in text and "unknown atoms" in text

    def test_invalid_interval(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["A", "B"], {"A": [0.5, 0.2], "B": [0.5, 1.0]})
        assert any("A" in v and "0 <= left <= right <= 1" in v for v in err.value.violations)

    def test_out_of_range_interval(self):
        with pytest.raises(ValidationError):
            GUMeasureSpace(["A"], {"A": [-0.1, 1.0]})
        with pytest.raises(ValidationError):
            GUMeasureSpace(["A"], {"A": [0.5, 1.2]})

    def test_unknown_mode(self):
        with pytest.raises(ValidationError) as err:
            GUMeasureSpace(["A"], {"A": [1.0, 1.0]}, mode="lenient")
        assert any("mode" in v for v in err.value.violations)

    def test_tolerance_wiggle(self):
        GUMeasureSpace(["A", "B"], {"A": [0.5, 0.6], "B": [0.5 + 5e-10, 0.6]})
        with pytest.raises(ValidationError):
            GUMeasureSpace(["A", "B"], {"A": [0.5, 0.6], "B": [0.5 + 1e-6, 0.6]})

    def test_axiom_violations_empty_for_valid(self):
        assert axiom_violations(["A"], {"A": [1.0, 1.0]}) == ()

    def test_infinite_tolerance_is_a_violation(self):
        # With an infinite slack any endpoint sums would pass the strict law.
        found = axiom_violations(["A", "B"], {"A": [0.05, 0.05], "B": [0.1, 0.1]}, "strict", math.inf)
        assert found == ("tolerance must be finite and nonnegative, got inf",)

    def test_axiom_violations_names_unreadable_atoms(self):
        found = axiom_violations(["", "a"], {"a": [1.0, 1.0]})
        assert found[0] == "atom names must be non-empty strings, got ''"
        assert axiom_violations(["a"], {"a": "xy"}) == ("atom 'a': 'xy' is not an interval",)

    def test_direct_constructor_validates(self):
        with pytest.raises(ValidationError):
            GUMeasureSpace(atoms=("A",), assignment={"A": GUInterval(0.2, 0.3)})

    def test_direct_constructor_coerces_pairs(self):
        sp = GUMeasureSpace(atoms=("A", "B"), assignment={"A": [0.5, 0.5], "B": [0.5, 0.5]})
        assert sp.measure(["A"]) == GUInterval(0.5, 0.5)
        assert sp.assignment["B"] == GUInterval(0.5, 0.5)

    @pytest.mark.parametrize(
        "masses, mode",
        [
            ([(0.6, 0.7), (0.6, 0.7)], "coherent"),
            ([(0.1, 0.2), (0.1, 0.2)], "coherent"),
            ([(0.1, 0.2), (0.2, 0.3)], "strict"),
        ],
    )
    def test_variables_share_the_sum_law(self, masses, mode):
        with pytest.raises(ValidationError) as space_err:
            GUMeasureSpace(["A", "B"], dict(zip("AB", masses)), mode=mode)
        with pytest.raises(ValidationError) as variable_err:
            DiscreteGUVariable(
                values=(1.0, 2.0), masses=tuple(GUInterval(*m) for m in masses), mode=mode
            )
        relabelled = [
            v.replace("mass endpoint", "endpoint") for v in variable_err.value.violations
        ]
        assert relabelled == list(space_err.value.violations)
        assert all("mass endpoint" in v for v in variable_err.value.violations)


class TestMeasure:
    def test_empty_event(self, space):
        assert space.measure(set()) == GUInterval(0.0, 0.0)

    def test_full_event_axiomatic(self, space):
        assert space.measure({"N1", "N2", "N3"}) == GUInterval(1.0, 1.0)

    def test_singleton(self, space):
        assert space.measure({"N1"}) == GUInterval(0.1, 0.2)

    def test_pair_sum(self, space):
        got = space.measure({"N1", "N2"})
        assert got.left == pytest.approx(0.3, abs=1e-15)
        assert got.right == pytest.approx(0.5, abs=1e-15)

    def test_clipping_in_coherent_mode(self):
        sp = GUMeasureSpace(
            ["A", "B", "C"], {a: [0.0, 0.9] for a in "ABC"}
        )
        got = sp.measure({"A", "B"})
        assert got == GUInterval(0.0, 1.0)

    def test_measure_raw_unclipped(self):
        sp = GUMeasureSpace(["A", "B", "C"], {a: [0.0, 0.9] for a in "ABC"})
        raw = sp.measure_raw({"A", "B"})
        assert raw.left == 0.0
        assert raw.right == pytest.approx(1.8, abs=1e-15)

    def test_measure_raw_no_full_event_axiom(self):
        sp = GUMeasureSpace(["A", "B"], {"A": [0.25, 0.75], "B": [0.25, 0.5]})
        assert sp.measure_raw({"A", "B"}) == GUInterval(0.5, 1.25)

    def test_unknown_atom(self, space):
        with pytest.raises(EventError):
            space.measure({"N1", "N9"})

    def test_event_accepts_any_iterable(self, space):
        assert space.measure(["N1"]) == space.measure({"N1"})
        assert space.measure(iter(["N1"])) == GUInterval(0.1, 0.2)


class TestConditional:
    def test_example(self, space):
        got = space.conditional({"N1"}, {"N1", "N2"})
        assert got.left == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got.right == pytest.approx(0.4, abs=1e-12)

    def test_full_space_identity_exact(self, space):
        for event in ({"N1"}, {"N2", "N3"}, set()):
            assert space.conditional(event, {"N1", "N2", "N3"}) == space.measure(event)

    def test_zero_endpoint_rejected(self):
        sp = GUMeasureSpace(["A", "B"], {"A": [0.0, 0.5], "B": [0.5, 1.0]})
        with pytest.raises(ConditioningError):
            sp.conditional({"B"}, {"A"})

    def test_self_conditional_is_unit(self, space):
        got = space.conditional({"N3"}, {"N3"})
        assert got == GUInterval(1.0, 1.0)


class TestIndependence:
    # crafted so that measure(A & B) equals the endpoint product exactly:
    # A = {x, y} -> [0.2, 0.3], B = {x, z} -> [0.5, 0.6], A & B = {x}
    FOUR = {
        "x": [0.1, 0.18],
        "y": [0.1, 0.12],
        "z": [0.4, 0.42],
        "w": [0.2, 0.28],
    }

    @pytest.fixture
    def sp(self):
        return GUMeasureSpace(list(self.FOUR), self.FOUR)

    def test_factorizing_pair(self, sp):
        assert sp.independent({"x", "y"}, {"x", "z"})
        joint = sp.measure({"x"})
        product = mul(sp.measure({"x", "y"}), sp.measure({"x", "z"}))
        assert joint.left == pytest.approx(product.left, abs=1e-12)
        assert joint.right == pytest.approx(product.right, abs=1e-12)

    def test_non_factorizing_pair(self, sp):
        assert not sp.independent({"x"}, {"y"})


class TestUnionMeasure:
    def test_matches_raw_union(self, space):
        got = space.union_measure({"N1"}, {"N2"})
        want = space.measure_raw({"N1", "N2"})
        assert got.left == pytest.approx(want.left, abs=1e-12)
        assert got.right == pytest.approx(want.right, abs=1e-12)

    def test_overlapping_events(self, space):
        got = space.union_measure({"N1", "N2"}, {"N2", "N3"})
        want = space.measure_raw({"N1", "N2", "N3"})
        assert got.left == pytest.approx(want.left, abs=1e-12)
        assert got.right == pytest.approx(want.right, abs=1e-12)

    def test_disjoint_dyadic_exact(self):
        sp = GUMeasureSpace(
            ["A", "B", "C"],
            {"A": [0.25, 0.5], "B": [0.125, 0.25], "C": [0.25, 0.5]},
        )
        assert sp.union_measure({"A"}, {"B"}) == sp.measure_raw({"A", "B"})


class TestDegenerate:
    def test_collapse(self):
        sp = GUMeasureSpace(
            ["A", "B"], {"A": [0.25, 0.25], "B": [0.75, 0.75]}, mode="strict"
        )
        assert sp.collapse_to_probability() == {"A": 0.25, "B": 0.75}

    def test_collapse_rejects_wide_atoms(self, space):
        with pytest.raises(DegeneracyError) as err:
            space.collapse_to_probability()
        assert "N1" in str(err.value)

    def test_long_atom_names_stay_short_in_messages(self):
        long = "x" * 1_000_000
        sp = GUMeasureSpace([long, "b"], {long: [0.0, 1.0], "b": [0.0, 1.0]})
        with pytest.raises(DegeneracyError) as collapse_err:
            sp.collapse_to_probability()
        with pytest.raises(EventError) as event_err:
            sp.measure({long + "y"})
        for err in (collapse_err, event_err):
            assert "xxx" in str(err.value) and len(str(err.value)) < 200

    def test_degenerate_measure_matches_classical(self):
        probs = {"A": 0.125, "B": 0.375, "C": 0.5}
        sp = GUMeasureSpace(list(probs), {a: [p, p] for a, p in probs.items()}, mode="strict")
        for event in ({"A"}, {"A", "B"}, {"B", "C"}, {"A", "C"}):
            classical = math.fsum(probs[a] for a in event)
            assert sp.measure(event) == GUInterval(classical, classical)

    def test_total(self, space):
        total = space.measure_raw(space.atoms)
        assert total.left == pytest.approx(0.8, abs=1e-15)
        assert total.right == pytest.approx(1.2, abs=1e-15)


class TestMonotonicity:
    def test_nested_events_never_partly(self, space):
        events = [set(), {"N1"}, {"N1", "N2"}, {"N1", "N2", "N3"}]
        for i in range(len(events)):
            for j in range(i + 1, len(events)):
                rel = compare(space.measure_raw(events[i]), space.measure_raw(events[j]))
                assert rel in (Relation.WEAKLY_SMALLER, Relation.STRONGLY_SMALLER, Relation.EQUAL)

    def test_zero_lower_bound_growth_stays_weak(self):
        # the added atom contributes nothing on the left, the shared lower
        # endpoint must still not read as containment
        sp = GUMeasureSpace(["A", "B"], {"A": [0.2, 0.4], "B": [0.0, 0.6]})
        rel = compare(sp.measure_raw({"A"}), sp.measure_raw({"A", "B"}))
        assert rel is Relation.WEAKLY_SMALLER
