"""Distribution specs, sequence generation and neighbourhood classing."""

import math
import warnings

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
from gutheory import _replay, algorithms
from gutheory._ziggurat import KE, KI, WE, WI
from gutheory.algorithms import FAMILIES, MAX_DISTRIBUTIONS, MAX_DRAWS, MAX_K


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


#: One spec of each family, for mixtures drawn by family name.
MIXED = {
    "normal": DistributionSpec("normal", 0.3, 2.0),
    "uniform": DistributionSpec("uniform", -1.0, 0.5),
    "exponential": DistributionSpec("exponential", 2.5),
}

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DistributionSpec("x" * 1_000_000, 0.0, 1.0),
            lambda: DistributionSpec.from_dict({"family": "x" * 1_000_000}),
        ],
        ids=["family", "from_dict"],
    )
    def test_long_inputs_stay_short_in_messages(self, build):
        with pytest.raises(ConfigurationError) as err:
            build()
        assert "xxx" in str(err.value) and len(str(err.value)) < 200

    @pytest.mark.parametrize("spec", [s for specs in ONE_FAMILY.values() for s in specs])
    def test_sample_equals_numpy_sampler(self, spec):
        assert generate_sequence([spec], 50, seed=5).elements == replay([spec], 50, 5)

    def test_sampling_deterministic_per_seed(self):
        spec = DistributionSpec("normal", 0.0, 1.0)
        a = generate_sequence([spec], 20, seed=7)
        b = generate_sequence([spec], 20, seed=7)
        assert a.elements == b.elements

    def test_uniform_bounds(self):
        # sigma2 = 1/3 gives half width exactly 1
        spec = DistributionSpec("uniform", 2.0, 1.0 / 3.0)
        draws = generate_sequence([spec], 500, seed=3).elements
        assert all(1.0 <= x <= 3.0 for x in draws)
        assert np.mean(draws) == pytest.approx(2.0, abs=0.1)

    def test_exponential_positive_draws(self):
        spec = DistributionSpec("exponential", 1.5)
        draws = generate_sequence([spec], 500, seed=11).elements
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
        # one family takes the block path, mixed families the word replay
        specs = []
        for family, mu, sigma2 in drawn:
            family = drawn[0][0] if one_family else family
            if family == "exponential":
                specs.append(DistributionSpec(family, abs(mu)))
            else:
                specs.append(DistributionSpec(family, mu, sigma2))
        assert generate_sequence(specs, k, seed=seed).elements == replay(specs, k, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        families=st.lists(st.sampled_from(FAMILIES), min_size=2, max_size=40).filter(
            lambda families: len(set(families)) > 1
        ),
        k=st.integers(400, 1600),
        seed=st.integers(0, 2**32),
    )
    def test_long_mixed_sequence_equals_numpy_replay(self, families, k, seed):
        # long enough for normal or exponential draws that take more than
        # one word, which the mixed path draws again; wide rows hold several,
        # before, on and after their picks
        specs = [MIXED[family] for family in families]
        assert generate_sequence(specs, k, seed=seed).elements == replay(specs, k, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_path_draws_each_slow_draw_once(self, seed):
        # One scalar call for each draw that takes more than one word, which
        # a reference counts off the state: it moved by more than one step.
        families = [FAMILIES[j % 3] for j in range(35)]
        k = 300
        reference = np.random.default_rng(seed)
        slow = 0
        for _ in range(k):
            for family in families:
                one_step = np.random.PCG64()
                one_step.state = reference.bit_generator.state
                one_step.advance(1)
                getattr(reference, algorithms.STANDARD[family])()
                slow += reference.bit_generator.state != one_step.state
        calls = []

        class Counted(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls.append("normal")
                return super().standard_normal(*args, **kwargs)

            def standard_exponential(self, *args, **kwargs):
                calls.append("exponential")
                return super().standard_exponential(*args, **kwargs)

        _, kept = _replay.replay_mixed(Counted(np.random.PCG64(seed)), families, k)
        assert slow > 0
        assert len(calls) == slow
        specs = [ONE_FAMILY[family][0] for family in families]  # the standard laws
        assert tuple(kept.tolist()) == replay(specs, k, seed)

    @pytest.mark.parametrize("chunk", [1, 5, 7, 97])
    def test_mixed_path_matches_replay_across_chunk_edges(self, monkeypatch, chunk):
        # Small chunks put the edges of the scanned words inside rows and
        # slow draws, which 150 rows are long enough to hold; k around the
        # rows a chunk holds puts the last chunk's edge just before, on and
        # after the last row; at n > chunk a chunk of rows is one row.
        monkeypatch.setattr(_replay, "_CHUNK", chunk)
        for n in (2, 3, 7, 20):
            specs = [MIXED[FAMILIES[(j + 2) % 3]] for j in range(n)]  # exponential first
            rows = max(1, chunk // n)
            for k in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows, 150} - {0}):
                for seed in range(2):
                    assert generate_sequence(specs, k, seed=seed).elements == replay(specs, k, seed)

    @pytest.mark.parametrize("chunk", [1, 5, 7, 97])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_family_path_matches_replay_across_chunk_edges(self, monkeypatch, chunk, family):
        # k around the rows a chunk holds puts the last chunk's edge just
        # before, on and after the last row; at n > chunk a chunk is one row.
        monkeypatch.setattr(algorithms, "_CHUNK", chunk)
        for n in (1, 3, 7, 20):
            specs = [ONE_FAMILY[family][j % 3] for j in range(n)]
            rows = max(1, chunk // n)
            for k in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows} - {0}):
                for seed in range(2):
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

    @pytest.mark.parametrize(
        "k, seed", [(2.5, 0), (5, 1.5), (True, 0), (5, True), ("5", 0), (np.int64(5), 0)]
    )
    def test_length_and_seed_are_integers(self, k, seed):
        with pytest.raises(ConfigurationError):
            generate_sequence(self.SPECS, k, seed)

    def test_integral_float_length_and_seed_read_as_ints(self):
        # As JSON Schema's "integer" does, which the command line applies.
        assert generate_sequence(self.SPECS, 5.0, 3.0) == generate_sequence(self.SPECS, 5, 3)

    @pytest.mark.parametrize("k", [MAX_K + 1, 10**20, 1e20])
    def test_length_above_ceiling_is_configuration_error(self, k):
        with pytest.raises(ConfigurationError, match="at most"):
            generate_sequence(self.SPECS, k)

    def test_draws_above_ceiling_is_configuration_error(self):
        specs = [DistributionSpec("normal", 0.0, 1.0)] * 4
        with pytest.raises(ConfigurationError, match=f"at most {MAX_DRAWS}"):
            generate_sequence(specs, MAX_DRAWS // 4 + 1)

    def test_distributions_above_ceiling_is_configuration_error(self):
        specs = [DistributionSpec("exponential", 1.0)] * (MAX_DISTRIBUTIONS + 1)
        with pytest.raises(ConfigurationError, match=f"at most {MAX_DISTRIBUTIONS}, got"):
            generate_sequence(specs, 1)

    def test_negative_seed_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_sequence(self.SPECS, 3, seed=-1)

    def test_non_finite_element_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="float range"):
            generate_sequence([DistributionSpec("exponential", 1e308)], 20, seed=0)

    def test_mixed_non_finite_element_is_configuration_error(self):
        # the scaling overflows to inf without a RuntimeWarning
        specs = [DistributionSpec("exponential", 1e308), MIXED["uniform"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="float range"):
                generate_sequence(specs, 20, seed=0)

    def test_sequence_indexing(self):
        seq = GUSequence((1.0, 2.0, 3.0))
        assert seq[1] == 2.0
        assert list(seq) == [1.0, 2.0, 3.0]


class TestZigguratTables:
    """``gutheory._ziggurat`` holds the installed numpy's ziggurat tables.

    Each draw starts from a PCG64 state set so that its next word is a
    crafted one: PCG64 steps its state and then outputs it, and a state
    below 2**64 outputs itself.
    """

    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)

    def draw(self, method, word):
        """The draw whose first word is ``word``, and whether it took that
        word alone."""
        self.bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": word, "inc": self.bitgen.state["state"]["inc"]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.bitgen.advance(-1)
        value = getattr(self.rng, method)()
        return value, self.bitgen.state["state"]["state"] == word

    @pytest.mark.parametrize(
        "method, ks, ws, bits, word",
        [
            # layer in bits 0-7, sign in bit 8, mantissa in bits 9-60
            ("standard_normal", KI, WI, 52, lambda layer, m: (m << 9) | layer),
            # layer in bits 3-10, mantissa in bits 11-63
            ("standard_exponential", KE, WE, 53, lambda layer, m: (m << 11) | (layer << 3)),
        ],
    )
    def test_every_entry_matches_numpy(self, method, ks, ws, bits, word):
        assert len(ks) == len(ws) == 256
        # Layer 1 never takes one word.
        assert ks[1] == 0
        for layer in range(256):
            assert self.draw(method, word(layer, 1))[0] == ws[layer]
            if ks[layer]:
                assert self.draw(method, word(layer, ks[layer] - 1))[1]
            assert ks[layer] < 2**bits
            assert not self.draw(method, word(layer, ks[layer]))[1]


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
