"""Discrete variables, joint laws, envelopes and the interval calculus."""

import math

import pytest

from gutheory import (
    ConfigurationError,
    ConvergenceError,
    DiscreteGUVariable,
    EnvelopeError,
    GUFunctionEnvelope,
    GUInterval,
    IntervalError,
    JointDiscreteGUVariable,
    NestingError,
    ValidationError,
    covariance,
    endpoint_sum,
    density_expectation,
    gu_derivative,
    gu_integral,
    gu_limit,
    gu_variation,
    nested_limit,
)


@pytest.fixture
def variable():
    return DiscreteGUVariable(
        values=(1.0, 2.0, 3.0),
        masses=(GUInterval(0.1, 0.2), GUInterval(0.2, 0.3), GUInterval(0.5, 0.7)),
    )


class TestDiscreteVariable:
    def test_expectation(self, variable):
        e = variable.expectation()
        assert e.left == pytest.approx(2.0, abs=1e-12)
        assert e.right == pytest.approx(2.9, abs=1e-12)

    def test_expectation_exact_dyadic(self):
        v = DiscreteGUVariable(
            values=(1.0, 2.0, 4.0),
            masses=(GUInterval(0.25, 0.25), GUInterval(0.25, 0.5), GUInterval(0.25, 0.5)),
        )
        assert v.expectation() == GUInterval(1.75, 3.25)

    def test_expectation_inverse_with_negative_support(self):
        v = DiscreteGUVariable(
            values=(-4.0, 1.0),
            masses=(GUInterval(0.25, 0.75), GUInterval(0.25, 0.5)),
        )
        # -4 * [0.25, 0.75] pulls the left endpoint above the right one
        e = v.expectation()
        assert e == GUInterval(-0.75, -2.5)
        assert not e.is_proper

    def test_mass_on_and_off_support(self, variable):
        assert variable.mass(2.0) == GUInterval(0.2, 0.3)
        assert variable.mass(2.5) == GUInterval(0.0, 0.0)

    def test_distribution_below_support(self, variable):
        assert variable.distribution_at(0.0) == GUInterval(0.0, 0.0)

    def test_distribution_mid(self, variable):
        got = variable.distribution_at(2.0)
        assert got.left == pytest.approx(0.3, abs=1e-15)
        assert got.right == pytest.approx(0.5, abs=1e-15)

    def test_distribution_at_top_is_total(self, variable):
        assert variable.distribution_at(3.0) == endpoint_sum(variable.masses)
        assert variable.distribution_at(99.0) == endpoint_sum(variable.masses)

    def test_distribution_monotone(self, variable):
        xs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        ds = [variable.distribution_at(x) for x in xs]
        for a, b in zip(ds, ds[1:]):
            assert a.left <= b.left and a.right <= b.right

    def test_degenerate_flag_and_classical_mean(self):
        v = DiscreteGUVariable(
            values=(1.0, 3.0),
            masses=(GUInterval(0.25, 0.25), GUInterval(0.75, 0.75)),
            mode="strict",
        )
        assert v.is_degenerate
        assert v.expectation() == GUInterval(2.5, 2.5)

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            DiscreteGUVariable(values=(), masses=())
        with pytest.raises(ValidationError):
            DiscreteGUVariable(values=(1.0, 2.0), masses=(GUInterval(0.5, 1.0),))
        with pytest.raises(ValidationError):
            DiscreteGUVariable(values=(2.0, 1.0), masses=(GUInterval(0.2, 0.5), GUInterval(0.2, 0.5)))
        with pytest.raises(ValidationError):
            DiscreteGUVariable(values=(1.0,), masses=(GUInterval(0.5, 0.2),))
        with pytest.raises(ValidationError):
            DiscreteGUVariable(
                values=(1.0, 2.0),
                masses=(GUInterval(0.1, 0.2), GUInterval(0.1, 0.2)),
            )  # upper endpoints sum to 0.4 < 1
        with pytest.raises(ValidationError):
            DiscreteGUVariable(
                values=(1.0,), masses=(GUInterval(0.9, 1.0),), mode="strict"
            )
        with pytest.raises(ValidationError):
            DiscreteGUVariable(
                values=(1.0,), masses=(GUInterval(1.0, 1.0),), mode="sloppy"
            )


class TestJointAndCovariance:
    def test_perfectly_correlated_degenerate(self):
        j = JointDiscreteGUVariable(
            row_values=(0.0, 1.0),
            col_values=(0.0, 1.0),
            cells=(
                (GUInterval(0.5, 0.5), GUInterval(0.0, 0.0)),
                (GUInterval(0.0, 0.0), GUInterval(0.5, 0.5)),
            ),
            mode="strict",
        )
        res = covariance(j)
        assert res.interval == GUInterval(0.25, 0.25)
        assert not res.was_inverse

    def test_independent_degenerate_is_zero(self):
        quarter = GUInterval(0.25, 0.25)
        j = JointDiscreteGUVariable(
            row_values=(0.0, 1.0),
            col_values=(0.0, 1.0),
            cells=((quarter, quarter), (quarter, quarter)),
            mode="strict",
        )
        res = covariance(j)
        assert res.interval.left == pytest.approx(0.0, abs=1e-15)
        assert res.interval.right == pytest.approx(0.0, abs=1e-15)

    def test_interval_masses_inverse_raw(self):
        j = JointDiscreteGUVariable(
            row_values=(0.0, 1.0),
            col_values=(0.0, 1.0),
            cells=(
                (GUInterval(0.2, 0.3), GUInterval(0.1, 0.2)),
                (GUInterval(0.1, 0.2), GUInterval(0.2, 0.3)),
            ),
        )
        res = covariance(j)
        assert res.was_inverse
        assert res.interval.is_proper
        assert res.interval.left == pytest.approx(0.05, abs=1e-12)
        assert res.interval.right == pytest.approx(0.074, abs=1e-12)

    def test_centred_products_beyond_float_range(self):
        quarter = GUInterval(0.25, 0.25)
        j = JointDiscreteGUVariable(
            row_values=(-1e200, 1e200),
            col_values=(-1e200, 1e200),
            cells=((quarter, quarter), (quarter, quarter)),
        )
        with pytest.raises(IntervalError):
            covariance(j)

    def test_marginals(self):
        j = JointDiscreteGUVariable(
            row_values=(0.0, 1.0),
            col_values=(0.0, 1.0),
            cells=(
                (GUInterval(0.2, 0.3), GUInterval(0.1, 0.2)),
                (GUInterval(0.1, 0.2), GUInterval(0.2, 0.3)),
            ),
        )
        rows, cols = j.marginals()
        assert rows[0].left == pytest.approx(0.3, abs=1e-15)
        assert rows[0].right == pytest.approx(0.5, abs=1e-15)
        assert len(rows) == 2 and len(cols) == 2

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            JointDiscreteGUVariable(
                row_values=(0.0, 1.0),
                col_values=(0.0,),
                cells=((GUInterval(0.5, 1.0),),),
            )
        with pytest.raises(ValidationError):
            JointDiscreteGUVariable(
                row_values=(0.0,),
                col_values=(0.0, 1.0),
                cells=((GUInterval(0.5, 1.0),),),
            )


class TestEnvelopeConstruction:
    def test_basic(self):
        env = GUFunctionEnvelope(
            lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(0.0, 1.0), kind="free"
        )
        assert env.domain == (0.0, 1.0)
        assert env.kind == "free"

    def test_rejects_crossed_cores(self):
        with pytest.raises(ValidationError) as err:
            GUFunctionEnvelope(
                lower=lambda x: 1.0, upper=lambda x: 0.0, domain=(0.0, 1.0)
            )
        assert "exceeds" in str(err.value)

    def test_density_kind_nonnegative(self):
        with pytest.raises(ValidationError):
            GUFunctionEnvelope(
                lower=lambda x: -0.5, upper=lambda x: 1.0, domain=(0.0, 1.0), kind="density"
            )

    def test_rejects_bad_domain(self):
        with pytest.raises(ValidationError):
            GUFunctionEnvelope(lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(1.0, 0.0))

    @pytest.mark.parametrize(
        "core, domain",
        [(lambda x: x, (-1.7e308, 1.7e308)), (lambda x: 1.0, (-1e308, 1e308))],
    )
    def test_rejects_domain_wider_than_float_range(self, core, domain):
        with pytest.raises(ValidationError) as err:
            GUFunctionEnvelope(lower=core, upper=core, domain=domain)
        assert err.value.violations == (
            f"domain [{domain[0]}, {domain[1]}] is wider than the float range",
        )

    def test_rejects_domain_too_narrow_for_the_grid(self):
        with pytest.raises(ValidationError) as err:
            GUFunctionEnvelope(lower=lambda x: 1.0, upper=lambda x: 1.0, domain=(0.0, 5e-324))
        assert "too narrow" in str(err.value)

    def test_rejects_non_finite_core(self):
        with pytest.raises(ValidationError):
            GUFunctionEnvelope(
                lower=lambda x: math.inf, upper=lambda x: 1.0, domain=(0.0, 1.0)
            )

    def test_rejects_raising_core(self):
        def explode(x):
            raise RuntimeError("boom")

        with pytest.raises(ValidationError):
            GUFunctionEnvelope(lower=explode, upper=lambda x: 1.0, domain=(0.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            GUFunctionEnvelope(
                lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(0.0, 1.0), kind="loose"
            )


LONG = "x" * 1_000_000


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiscreteGUVariable(values=(1.0,), masses=([1.0, 1.0],), mode=LONG),
        lambda: JointDiscreteGUVariable(
            row_values=(1.0,), col_values=(1.0,), cells=(([1.0, 1.0],),), mode=LONG
        ),
        lambda: GUFunctionEnvelope(
            lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(0.0, 1.0), kind=LONG
        ),
        lambda: GUFunctionEnvelope(
            lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(LONG, 1.0)
        ),
    ],
    ids=["variable-mode", "joint-mode", "envelope-kind", "envelope-domain"],
)
def test_long_inputs_stay_short_in_messages(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert "xxx" in str(err.value) and len(str(err.value)) < 200


class TestCalculus:
    @pytest.fixture
    def square_env(self):
        return GUFunctionEnvelope(
            lower=lambda x: x * x, upper=lambda x: x * x + 1.0, domain=(0.0, 2.0)
        )

    def test_limit_is_evaluation(self, square_env):
        got = gu_limit(square_env, 1.0)
        assert got == GUInterval(1.0, 2.0)

    def test_limit_averages_sides_near_the_float_maximum(self):
        def core(x):
            return math.nan if x == 0.3 else 1.7e308

        env = GUFunctionEnvelope(lower=core, upper=core, domain=(0.0, 1.0))
        assert gu_limit(env, 0.3) == GUInterval(1.7e308, 1.7e308)

    def test_limit_outside_domain(self, square_env):
        with pytest.raises(EnvelopeError):
            gu_limit(square_env, 3.0)

    def test_derivative_central(self, square_env):
        got = gu_derivative(square_env, 1.0)
        assert got.left == pytest.approx(2.0, abs=1e-9)
        assert got.right == pytest.approx(2.0, abs=1e-9)

    def test_derivative_one_sided_at_edges(self, square_env):
        left_edge = gu_derivative(square_env, 0.0)
        assert abs(left_edge.left) <= 0.01 and abs(left_edge.right) <= 0.01
        right_edge = gu_derivative(square_env, 2.0)
        assert right_edge.left == pytest.approx(4.0, abs=0.01)

    def test_variation(self):
        env = GUFunctionEnvelope(
            lower=lambda x: x, upper=lambda x: x + 0.5, domain=(0.0, 2.0)
        )
        got = gu_variation(env, 0.5, 0.25)
        assert got == GUInterval(-0.25, 0.75)

    def test_variation_rejects_bad_delta(self, square_env):
        with pytest.raises(EnvelopeError):
            gu_variation(square_env, 0.5, 0.0)
        with pytest.raises(EnvelopeError):
            gu_variation(square_env, 1.9, 0.5)

    def test_integral_unit_box(self):
        env = GUFunctionEnvelope(
            lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(0.0, 1.0), kind="free"
        )
        got = gu_integral(env, 0.0, 1.0)
        assert got.left == pytest.approx(0.0, abs=1e-12)
        assert got.right == pytest.approx(1.0, abs=1e-12)
        part = gu_integral(env, 0.25, 0.75)
        assert part.right == pytest.approx(0.5, abs=1e-12)

    def test_integral_over_the_smallest_window(self):
        # Half of the one nonzero gap, 5e-324, rounds to zero.
        env = GUFunctionEnvelope(
            lower=lambda x: 1.0, upper=lambda x: 3.0, domain=(0.0, 1.0)
        )
        assert gu_integral(env, 0.0, 5e-324) == GUInterval(5e-324, 1.5e-323)

    def test_integral_quadratic(self, square_env):
        got = gu_integral(square_env, 0.0, 1.0)
        assert got.left == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert got.right == pytest.approx(1.0 / 3.0 + 1.0, abs=1e-5)

    def test_integral_bound_checks(self, square_env):
        with pytest.raises(EnvelopeError):
            gu_integral(square_env, -0.5, 1.0)
        with pytest.raises(EnvelopeError):
            gu_integral(square_env, 1.0, 0.5)


class TestDensityExpectation:
    def test_uniform_density(self):
        env = GUFunctionEnvelope(
            lower=lambda x: 1.0, upper=lambda x: 1.0, domain=(0.0, 1.0), kind="density"
        )
        got = density_expectation(env)
        assert got.left == pytest.approx(0.5, abs=1e-9)
        assert got.right == pytest.approx(0.5, abs=1e-9)

    def test_band_density(self):
        env = GUFunctionEnvelope(
            lower=lambda x: 0.8, upper=lambda x: 1.2, domain=(0.0, 1.0), kind="density"
        )
        got = density_expectation(env)
        assert got.left == pytest.approx(0.4, abs=1e-9)
        assert got.right == pytest.approx(0.6, abs=1e-9)

    def test_sign_split(self):
        env = GUFunctionEnvelope(
            lower=lambda x: 0.5, upper=lambda x: 1.0, domain=(-1.0, 1.0), kind="density"
        )
        got = density_expectation(env)
        assert got.left == pytest.approx(-0.25, abs=1e-9)
        assert got.right == pytest.approx(0.25, abs=1e-9)

    def test_requires_density_kind(self):
        env = GUFunctionEnvelope(
            lower=lambda x: 0.0, upper=lambda x: 1.0, domain=(0.0, 1.0), kind="free"
        )
        with pytest.raises(ConfigurationError):
            density_expectation(env)


class TestNestedLimit:
    def test_short_chain(self):
        got = nested_limit([[0.0, 1.0], [0.25, 0.75], [0.375, 0.625]])
        assert got.estimate == 0.5
        assert got.error_bound == 0.125

    def test_singleton_degenerate(self):
        got = nested_limit([GUInterval(0.3, 0.3)])
        assert got.estimate == 0.3
        assert got.error_bound == 0.0

    def test_constant_degenerate_chain(self):
        got = nested_limit([GUInterval(0.5, 0.5)] * 3)
        assert got.estimate == 0.5

    def test_nesting_error_reports_index(self):
        with pytest.raises(NestingError) as err:
            nested_limit([[0.0, 1.0], [0.25, 0.75], [0.2, 0.6]])
        assert err.value.index == 2

    def test_no_shrinkage(self):
        with pytest.raises(ConvergenceError):
            nested_limit([[0.0, 1.0], [0.0, 1.0]])

    def test_halves_beyond_the_float_range(self):
        assert nested_limit([[-1.7e308, 1.7e308]]) == (0.0, 1.7e308)
        assert nested_limit([[1.7e308, 1.7e308]]) == (1.7e308, 0.0)
        wide = [[-1.7e308, 1.7e308], [-1.6e308, 1.6e308]]
        assert nested_limit(wide) == (0.0, 1.6e308)

    def test_empty_sequence(self):
        with pytest.raises(IntervalError):
            nested_limit([])

    def test_inverse_element(self):
        with pytest.raises(IntervalError):
            nested_limit([[0.0, 1.0], [0.75, 0.25]])
