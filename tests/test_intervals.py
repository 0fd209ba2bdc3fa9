"""Interval value type, endpoint arithmetic and the order classifier."""

import math

import pytest

from gutheory import (
    DEFAULT_TOLERANCE,
    GUInterval,
    IntervalError,
    Relation,
    add,
    as_interval,
    compare,
    complement,
    delta_neighbour,
    div,
    endpoint_sum,
    gud,
    inverse,
    mul,
    normalize,
    sub,
)


class TestConstruction:
    def test_coerces_to_float(self):
        iv = GUInterval(0, 1)
        assert isinstance(iv.left, float) and isinstance(iv.right, float)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(IntervalError):
            GUInterval(bad, 0.5)
        with pytest.raises(IntervalError):
            GUInterval(0.5, bad)

    def test_orientation_flags(self):
        assert GUInterval(0.1, 0.2).is_proper
        assert not GUInterval(0.2, 0.1).is_proper
        assert GUInterval(0.3, 0.3).is_proper

    def test_measure_valid(self):
        assert GUInterval(0.0, 1.0).is_measure_valid
        assert not GUInterval(-0.1, 0.5).is_measure_valid
        assert not GUInterval(0.5, 1.1).is_measure_valid
        assert not GUInterval(0.6, 0.4).is_measure_valid

    def test_midpoint(self):
        assert GUInterval(0.25, 0.75).midpoint == 0.5

    def test_as_interval(self):
        assert as_interval([0.1, 0.2]) == GUInterval(0.1, 0.2)
        assert as_interval((0.3, 0.4)) == GUInterval(0.3, 0.4)
        iv = GUInterval(0.1, 0.2)
        assert as_interval(iv) is iv
        with pytest.raises(IntervalError):
            as_interval("nope")
        with pytest.raises(IntervalError):
            as_interval([0.1, 0.2, 0.3])

    @pytest.mark.parametrize("value", [["a", 1.0], [10**400, 1.0]])
    def test_as_interval_unreadable_endpoint(self, value):
        with pytest.raises(IntervalError):
            as_interval(value)

    def test_midpoint_near_the_float_maximum(self):
        assert GUInterval(1.7e308, 1.7e308).midpoint == 1.7e308

    def test_str(self):
        assert str(GUInterval(0.1, 0.2)) == "[0.1, 0.2]"


class TestArithmetic:
    def test_add(self):
        # dyadic operands, sums exact
        assert add(GUInterval(0.25, 0.5), GUInterval(0.25, 0.25)) == GUInterval(0.5, 0.75)

    def test_add_decimal(self):
        got = add(GUInterval(0.1, 0.2), GUInterval(0.2, 0.3))
        assert got.left == pytest.approx(0.3, abs=1e-15)
        assert got.right == pytest.approx(0.5, abs=1e-15)

    def test_sub_produces_inverse(self):
        got = sub(GUInterval(0.3, 0.4), GUInterval(0.1, 0.3))
        assert got.left == pytest.approx(0.2, abs=1e-15)
        assert got.right == pytest.approx(0.1, abs=1e-15)
        assert not got.is_proper

    def test_sub_dyadic(self):
        assert sub(GUInterval(0.75, 1.0), GUInterval(0.25, 0.5)) == GUInterval(0.5, 0.5)

    def test_mul(self):
        assert mul(GUInterval(0.5, 0.5), GUInterval(0.25, 0.75)) == GUInterval(0.125, 0.375)
        got = mul(GUInterval(0.1, 0.2), GUInterval(0.2, 0.3))
        assert got.left == pytest.approx(0.02, abs=1e-15)
        assert got.right == pytest.approx(0.06, abs=1e-15)

    def test_div(self):
        got = div(GUInterval(0.02, 0.06), GUInterval(0.2, 0.3))
        assert got.left == pytest.approx(0.1, abs=1e-12)
        assert got.right == pytest.approx(0.2, abs=1e-12)

    def test_div_rejects_zero_endpoints(self):
        with pytest.raises(IntervalError):
            div(GUInterval(0.1, 0.2), GUInterval(0.0, 0.5))
        with pytest.raises(IntervalError):
            div(GUInterval(0.1, 0.2), GUInterval(0.5, 0.0))

    def test_endpoint_sum_overflow_is_interval_error(self):
        huge = GUInterval(1.7e308, 1.7e308)
        with pytest.raises(IntervalError):
            endpoint_sum([huge, huge])
        with pytest.raises(IntervalError):
            endpoint_sum([GUInterval(0.5, 0.5)], [1e308 * 10])
        with pytest.raises(IntervalError):  # -inf + inf inside the sum
            endpoint_sum([GUInterval(2.0, 2.0)] * 2, [-1e308, 1e308])


class TestOrientation:
    def test_inverse_swaps(self):
        assert inverse(GUInterval(0.1, 0.3)) == GUInterval(0.3, 0.1)

    def test_inverse_involution_exact(self):
        iv = GUInterval(0.123456, 0.654321)
        assert inverse(inverse(iv)) == iv

    def test_normalize(self):
        assert normalize(GUInterval(0.4, 0.2)) == GUInterval(0.2, 0.4)
        iv = GUInterval(0.2, 0.4)
        assert normalize(iv) is iv


class TestComplement:
    def test_example(self):
        got = complement(GUInterval(0.1, 0.2))
        assert got.left == pytest.approx(0.9, abs=1e-15)
        assert got.right == pytest.approx(0.8, abs=1e-15)
        assert not got.is_proper

    def test_involution_exact_on_dyadics(self):
        iv = GUInterval(0.25, 0.625)
        assert complement(complement(iv)) == iv

    def test_involution_decimal_close(self):
        iv = GUInterval(0.1, 0.2)
        back = complement(complement(iv))
        assert back.left == pytest.approx(0.1, abs=1e-15)
        assert back.right == pytest.approx(0.2, abs=1e-15)

    def test_accepts_inverse_orientation(self):
        assert complement(GUInterval(0.9, 0.8)) == GUInterval(1.0 - 0.9, 1.0 - 0.8)

    def test_rejects_out_of_range(self):
        with pytest.raises(IntervalError):
            complement(GUInterval(-0.1, 0.5))
        with pytest.raises(IntervalError):
            complement(GUInterval(0.5, 1.2))

    def test_degenerate_matches_scalar(self):
        assert complement(GUInterval(0.25, 0.25)) == GUInterval(0.75, 0.75)


class TestGud:
    def test_values(self):
        assert gud(GUInterval(105.0, 159.0)) == 54.0
        assert gud(GUInterval(106.0, 159.0)) == 53.0
        assert gud(GUInterval(0.3, 0.3)) == 0.0

    def test_zero_iff_degenerate(self):
        assert gud(GUInterval(0.4, 0.4)) == 0.0
        assert gud(GUInterval(0.4, 0.5)) > 0.0

    def test_rejects_inverse(self):
        with pytest.raises(IntervalError):
            gud(GUInterval(0.9, 0.8))


class TestDeltaNeighbour:
    def test_inside(self):
        assert delta_neighbour(GUInterval(0.1, 0.2), GUInterval(0.12, 0.22), 0.05)

    def test_boundary_exact(self):
        a = GUInterval(0.25, 0.5)
        b = GUInterval(0.3125, 0.5625)  # both gaps exactly 0.0625
        assert delta_neighbour(a, b, 0.0625)
        assert not delta_neighbour(a, b, 0.0624)

    def test_one_endpoint_too_far(self):
        assert not delta_neighbour(GUInterval(0.1, 0.2), GUInterval(0.12, 0.5), 0.05)

    def test_symmetric(self):
        a, b = GUInterval(0.1, 0.4), GUInterval(0.15, 0.38)
        assert delta_neighbour(a, b, 0.06) == delta_neighbour(b, a, 0.06)

    def test_reflexive_at_zero(self):
        a = GUInterval(0.3, 0.7)
        assert delta_neighbour(a, a, 0.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(IntervalError):
            delta_neighbour(GUInterval(0, 1), GUInterval(0, 1), -0.1)

    def test_rejects_nan_delta(self):
        with pytest.raises(IntervalError):
            delta_neighbour(GUInterval(0, 1), GUInterval(0, 1), math.nan)

    def test_rejects_inverse(self):
        with pytest.raises(IntervalError):
            delta_neighbour(GUInterval(0.5, 0.4), GUInterval(0, 1), 0.1)


class TestCompare:
    def test_equal(self):
        assert compare(GUInterval(0.2, 0.4), GUInterval(0.2, 0.4)) is Relation.EQUAL

    def test_equal_within_tolerance(self):
        a = GUInterval(0.2, 0.4)
        b = GUInterval(0.2 + 1e-12, 0.4 - 1e-12)
        assert compare(a, b) is Relation.EQUAL

    def test_strongly_separated(self):
        a, b = GUInterval(0.1, 0.2), GUInterval(0.5, 0.7)
        assert compare(a, b) is Relation.STRONGLY_SMALLER
        assert compare(b, a) is Relation.STRONGLY_GREATER

    def test_touching_is_weak(self):
        # shared boundary point stops strict separation
        a, b = GUInterval(0.1, 0.3), GUInterval(0.3, 0.5)
        assert compare(a, b) is Relation.WEAKLY_SMALLER
        assert compare(b, a) is Relation.WEAKLY_GREATER

    def test_weak_shift(self):
        a, b = GUInterval(104.0, 157.0), GUInterval(105.0, 159.0)
        assert compare(a, b) is Relation.WEAKLY_SMALLER
        assert compare(b, a) is Relation.WEAKLY_GREATER

    def test_overlapping_weak(self):
        assert compare(GUInterval(0.1, 0.5), GUInterval(0.3, 0.7)) is Relation.WEAKLY_SMALLER

    def test_containment(self):
        a, b = GUInterval(106.0, 159.0), GUInterval(105.0, 159.0)
        assert compare(a, b) is Relation.PARTLY_SMALLER
        assert compare(b, a) is Relation.PARTLY_GREATER
        inner, outer = GUInterval(0.3, 0.4), GUInterval(0.2, 0.8)
        assert compare(inner, outer) is Relation.PARTLY_SMALLER
        assert compare(outer, inner) is Relation.PARTLY_GREATER

    def test_shared_left_endpoint_is_weak_not_partly(self):
        # an event grown by zero-lower-bound atoms keeps its left endpoint;
        # that must read as a weak ranking, not containment
        a, b = GUInterval(0.2, 0.4), GUInterval(0.2, 0.8)
        assert compare(a, b) is Relation.WEAKLY_SMALLER
        assert compare(b, a) is Relation.WEAKLY_GREATER

    def test_shared_right_endpoint_is_partly(self):
        a, b = GUInterval(0.3, 0.8), GUInterval(0.2, 0.8)
        assert compare(a, b) is Relation.PARTLY_SMALLER

    def test_custom_tolerance(self):
        # a wide tolerance absorbs the 0.05 gap; the default sees b inside a
        a, b = GUInterval(0.0, 1.0), GUInterval(0.05, 1.0)
        assert compare(a, b, tol=0.1) is Relation.EQUAL
        assert compare(a, b) is Relation.PARTLY_GREATER

    def test_rejects_inverse(self):
        with pytest.raises(IntervalError):
            compare(GUInterval(0.5, 0.4), GUInterval(0, 1))

    def test_rejects_negative_tolerance(self):
        with pytest.raises(IntervalError):
            compare(GUInterval(0, 1), GUInterval(0, 1), tol=-1e-3)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(IntervalError):
            compare(GUInterval(0, 1), GUInterval(0, 1), tol=math.nan)

    def test_rejects_infinite_tolerance(self):
        # An infinite slack would call every pair Equal.
        with pytest.raises(IntervalError, match="finite"):
            compare(GUInterval(0, 1), GUInterval(5, 6), tol=math.inf)

    def test_mirror_property(self):
        cases = [
            (GUInterval(0.1, 0.2), GUInterval(0.5, 0.7)),
            (GUInterval(104.0, 157.0), GUInterval(105.0, 159.0)),
            (GUInterval(106.0, 159.0), GUInterval(105.0, 159.0)),
            (GUInterval(0.2, 0.4), GUInterval(0.2, 0.4)),
            (GUInterval(0.2, 0.4), GUInterval(0.2, 0.8)),
        ]
        for a, b in cases:
            assert compare(a, b).mirrored is compare(b, a)
