"""Distribution specs, sequence generation and neighbourhood classing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gutheory import (
    ConfigurationError,
    DistributionSpec,
    GUInterval,
    GUSequence,
    IntervalError,
    classify,
    generate_sequence,
)
from gutheory.algorithms import FAMILIES, MAX_DRAWS, MAX_K


def numpy_sample(spec, rng):
    """One draw from numpy's own sampler for ``spec``: the reference."""
    if spec.family == "normal":
        return rng.normal(spec.mu, math.sqrt(spec.sigma2))
    if spec.family == "uniform":
        half_width = math.sqrt(3.0 * spec.sigma2)
        return rng.uniform(spec.mu - half_width, spec.mu + half_width)
    return rng.exponential(spec.mu)


def replay(specs, k, seed):
    """The documented draw order, replayed through numpy's own samplers."""
    rng = np.random.default_rng(seed)
    rows = [[numpy_sample(spec, rng) for spec in specs] for _ in range(k)]
    picks = rng.integers(0, len(specs), size=k)
    return tuple(rows[j][picks[j]] for j in range(k))


ONE_FAMILY = {
    "normal": (
        DistributionSpec("normal", 0.0, 1.0),
        DistributionSpec("normal", -3.5, 0.25),
        DistributionSpec("normal", 1e6, 4e10),
    ),
    "uniform": (
        DistributionSpec("uniform", 0.5, 1.0 / 12.0),
        DistributionSpec("uniform", -20.0, 3.0),
        DistributionSpec("uniform", 1e-3, 1e-9),
    ),
    "exponential": (
        DistributionSpec("exponential", 1.0),
        DistributionSpec("exponential", 0.125),
        DistributionSpec("exponential", 250.0),
    ),
}


class TestDistributionSpec:
    def test_normal(self):
        spec = DistributionSpec("normal", 0.0, 1.0)
        assert spec.mu == 0.0 and spec.sigma2 == 1.0

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec("cauchy", 0.0, 1.0)

    @pytest.mark.parametrize("family", ["normal", "uniform"])
    def test_variance_required_and_positive(self, family):
        with pytest.raises(ConfigurationError):
            DistributionSpec(family, 0.0, None)
        with pytest.raises(ConfigurationError):
            DistributionSpec(family, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            DistributionSpec(family, 0.0, -1.0)

    def test_exponential_mean_positive(self):
        DistributionSpec("exponential", 2.0)
        with pytest.raises(ConfigurationError):
            DistributionSpec("exponential", 0.0)
        with pytest.raises(ConfigurationError):
            DistributionSpec("exponential", -1.0)

    def test_exponential_variance_tied_to_mean(self):
        DistributionSpec("exponential", 2.0, 4.0)
        with pytest.raises(ConfigurationError):
            DistributionSpec("exponential", 2.0, 5.0)

    def test_non_finite_mu(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec("normal", float("inf"), 1.0)

    def test_uniform_range_beyond_float_range(self):
        DistributionSpec("uniform", 0.0, 1e300)
        # 3 * sigma2 overflows, so the bounds are -inf and inf
        with pytest.raises(ConfigurationError, match="float range"):
            DistributionSpec("uniform", 0.0, 1e308)

    def test_exponential_variance_check_does_not_overflow(self):
        with pytest.raises(ConfigurationError, match="expected inf"):
            DistributionSpec("exponential", 1e308, 1.0)

    def test_from_dict(self):
        spec = DistributionSpec.from_dict({"family": "uniform", "mu": 0.5, "sigma2": 0.1})
        assert spec.family == "uniform"
        with pytest.raises(ConfigurationError):
            DistributionSpec.from_dict({"family": "normal"})

    @pytest.mark.parametrize("spec", [s for specs in ONE_FAMILY.values() for s in specs])
    def test_sample_equals_numpy_sampler(self, spec):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert [spec.sample(a) for _ in range(50)] == [numpy_sample(spec, b) for _ in range(50)]

    def test_sampling_deterministic_per_seed(self):
        spec = DistributionSpec("normal", 0.0, 1.0)
        a = spec.sample(np.random.default_rng(7))
        b = spec.sample(np.random.default_rng(7))
        assert a == b

    def test_uniform_bounds(self):
        # sigma2 = 1/3 gives half width exactly 1
        spec = DistributionSpec("uniform", 2.0, 1.0 / 3.0)
        rng = np.random.default_rng(3)
        draws = [spec.sample(rng) for _ in range(500)]
        assert all(1.0 <= x <= 3.0 for x in draws)
        assert np.mean(draws) == pytest.approx(2.0, abs=0.1)

    def test_exponential_positive_draws(self):
        spec = DistributionSpec("exponential", 1.5)
        rng = np.random.default_rng(11)
        draws = [spec.sample(rng) for _ in range(500)]
        assert all(x > 0.0 for x in draws)
        assert np.mean(draws) == pytest.approx(1.5, abs=0.25)


class TestGenerateSequence:
    SPECS = (
        DistributionSpec("normal", 0.0, 1.0),
        DistributionSpec("uniform", 0.5, 1.0 / 12.0),
    )

    def test_length_and_type(self):
        seq = generate_sequence(self.SPECS, 50, seed=1)
        assert isinstance(seq, GUSequence)
        assert len(seq) == 50

    def test_seed_reproducibility(self):
        a = generate_sequence(self.SPECS, 200, seed=42)
        b = generate_sequence(self.SPECS, 200, seed=42)
        assert a.elements == b.elements
        c = generate_sequence(self.SPECS, 200, seed=43)
        assert a.elements != c.elements

    @pytest.mark.parametrize("family", [*ONE_FAMILY, "mixed"])
    def test_draw_order_contract(self, family):
        # per position: one candidate per spec in spec order, then the
        # index draws; an independent replay must reproduce the output
        specs = ONE_FAMILY.get(family, self.SPECS)
        k, seed = 25, 9
        assert generate_sequence(specs, k, seed=seed).elements == replay(specs, k, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        one_family=st.booleans(),
        drawn=st.lists(
            st.tuples(
                st.sampled_from(FAMILIES),
                st.floats(1e-300, 1e150) | st.floats(-1e150, -1e-300),
                st.floats(1e-300, 1e200),
            ),
            min_size=1,
            max_size=5,
        ),
        k=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    def test_sequence_equals_numpy_replay(self, one_family, drawn, k, seed):
        # one family takes the block path, mixed families the scalar loop
        specs = []
        for family, mu, sigma2 in drawn:
            family = drawn[0][0] if one_family else family
            if family == "exponential":
                specs.append(DistributionSpec(family, abs(mu)))
            else:
                specs.append(DistributionSpec(family, mu, sigma2))
        assert generate_sequence(specs, k, seed=seed).elements == replay(specs, k, seed)

    def test_mixture_membership(self):
        # far-apart uniforms: every element must land in one support
        specs = (
            DistributionSpec("uniform", 0.5, 1.0 / 12.0),   # [0, 1]
            DistributionSpec("uniform", 10.5, 1.0 / 12.0),  # [10, 11]
        )
        seq = generate_sequence(specs, 300, seed=5)
        low = [x for x in seq if 0.0 <= x <= 1.0]
        high = [x for x in seq if 10.0 <= x <= 11.0]
        assert len(low) + len(high) == 300
        assert low and high  # both components actually used

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            generate_sequence((), 10)
        with pytest.raises(ConfigurationError):
            generate_sequence(self.SPECS, 0)

    @pytest.mark.parametrize("k", [MAX_K + 1, 10**20, 1e20])
    def test_length_above_ceiling_is_configuration_error(self, k):
        with pytest.raises(ConfigurationError, match="at most"):
            generate_sequence(self.SPECS, k)

    def test_draws_above_ceiling_is_configuration_error(self):
        specs = [DistributionSpec("normal", 0.0, 1.0)] * 4
        with pytest.raises(ConfigurationError, match=f"at most {MAX_DRAWS}"):
            generate_sequence(specs, MAX_DRAWS // 4 + 1)

    def test_negative_seed_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_sequence(self.SPECS, 3, seed=-1)

    def test_non_finite_element_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="float range"):
            generate_sequence([DistributionSpec("exponential", 1e308)], 20, seed=0)

    def test_sequence_indexing(self):
        seq = GUSequence((1.0, 2.0, 3.0))
        assert seq[1] == 2.0
        assert list(seq) == [1.0, 2.0, 3.0]


class TestClassify:
    def test_two_clusters(self):
        classes = classify(
            [[0.1, 0.2], [0.12, 0.22], [0.5, 0.7], [0.52, 0.68]], 0.05
        )
        assert classes == [[0, 1], [2, 3]]

    def test_pivot_not_transitive_closure(self):
        # second item neighbours the pivot, third only neighbours the second
        items = [[0.0, 0.0], [0.0625, 0.0625], [0.125, 0.125]]
        assert classify(items, 0.0625) == [[0, 1], [2]]

    def test_identical_items_single_class(self):
        assert classify([[0.3, 0.5]] * 4, 0.0) == [[0, 1, 2, 3]]

    def test_zero_delta_splits_distinct(self):
        assert classify([[0.3, 0.5], [0.3, 0.6], [0.3, 0.5]], 0.0) == [[0, 2], [1]]

    def test_empty_input(self):
        assert classify([], 0.1) == []

    @pytest.mark.parametrize("delta", [1e308, float("inf"), 10**400])
    def test_delta_beyond_every_gap(self, delta):
        items = [[-1e300, 1e300], [0.0, 0.5], [1e300, 1e300]]
        assert classify(items, delta) == [[0, 1, 2]]

    def test_accepts_intervals(self):
        classes = classify([GUInterval(0.1, 0.2), GUInterval(0.8, 0.9)], 0.05)
        assert classes == [[0], [1]]

    def test_partition_and_order(self):
        rng = np.random.default_rng(17)
        pairs = np.sort(rng.uniform(0, 1, size=(40, 2)), axis=1)
        classes = classify([tuple(p) for p in pairs], 0.1)
        flat = [i for members in classes for i in members]
        assert sorted(flat) == list(range(40))
        for members in classes:
            assert members == sorted(members)

    def test_pivot_is_first_unclassed(self):
        rng = np.random.default_rng(23)
        pairs = np.sort(rng.uniform(0, 1, size=(30, 2)), axis=1)
        classes = classify([tuple(p) for p in pairs], 0.07)
        seen: set[int] = set()
        for members in classes:
            expected_pivot = min(i for i in range(30) if i not in seen)
            assert members[0] == expected_pivot
            seen.update(members)

    def test_rejects_negative_delta(self):
        with pytest.raises(IntervalError):
            classify([[0.1, 0.2]], -0.01)

    def test_rejects_nan_delta(self):
        # No item is a NaN-neighbour of its own pivot, so the sweep would
        # never shrink the remaining items.
        with pytest.raises(IntervalError):
            classify([[0.1, 0.2]], float("nan"))

    def test_rejects_inverse_items(self):
        with pytest.raises(IntervalError):
            classify([[0.2, 0.1]], 0.05)
