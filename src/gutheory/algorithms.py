"""Sequence generation from distribution mixtures, and neighbourhood classing.

Randomness comes from NumPy's ``default_rng`` (PCG64), which only
:func:`generate_sequence` imports.  Its draw order is part of the contract:
identical seeds give identical sequences across runs and platforms.

One family draws all its candidates in one block call.  Mixed families
replay the scalar draws from a block of PCG64's raw 64-bit words, in
``_replay.py``, which only that path imports.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence

from .errors import ConfigurationError, IntervalError, brief
# ``classify`` inlines ``delta_neighbour``'s test; the name stays bound here
# because ``bench/trace_child.py`` counts neighbour tests by wrapping
# ``algorithms.delta_neighbour``.
from .intervals import IntervalLike, _Frozen, as_interval, delta_neighbour  # noqa: F401

FAMILIES = ("normal", "uniform", "exponential")

#: The ``Generator`` method that draws each family's standard law:
#: N(0, 1), U[0, 1) and Exp(1).
STANDARD = {
    "normal": "standard_normal",
    "uniform": "random",
    "exponential": "standard_exponential",
}

#: The longest sequence ``generate_sequence`` draws.  At this length, with
#: three distributions, ``gut generate --format json`` peaks at about
#: 119 MB of resident memory for one family and 116 MB for mixed families.
MAX_K = 1_000_000

#: The most candidate draws (``k`` times the number of distributions) that
#: ``generate_sequence`` makes; memory grows with this product: one family
#: holds a float per candidate, mixed families a 64-bit word per candidate.
MAX_DRAWS = 3 * MAX_K


class DistributionSpec(_Frozen):
    """A sampling distribution described by its mean and variance.

    ``family`` is one of ``"normal"``, ``"uniform"`` or ``"exponential"``.
    The uniform family is parameterized by moments like the others; its
    bounds are recovered as ``mu +/- sqrt(3 * sigma2)``.  An exponential
    has variance ``mu**2``, so ``sigma2`` may be omitted for it; when
    given it must agree.
    """

    __slots__ = __match_args__ = ("family", "mu", "sigma2")

    family: str
    mu: float
    sigma2: float | None

    def __init__(self, family: str, mu: float, sigma2: float | None = None) -> None:
        if family not in FAMILIES:
            raise ConfigurationError(
                f"unknown family {brief(repr(family))}; expected one of {FAMILIES}"
            )
        mu = float(mu)
        if not math.isfinite(mu):
            raise ConfigurationError(f"mu must be finite, got {mu}")
        if sigma2 is not None:
            sigma2 = float(sigma2)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)
        if self.family in ("normal", "uniform"):
            if self.sigma2 is None or not math.isfinite(self.sigma2) or self.sigma2 <= 0.0:
                raise ConfigurationError(
                    f"{self.family} needs a positive variance, got {self.sigma2!r}"
                )
            if self.family == "uniform":
                low, high = self._uniform_bounds()
                # Not finite when either bound, or the width the sampler
                # computes from them, overflows.
                if not math.isfinite(high - low):
                    raise ConfigurationError(
                        f"uniform range [{low}, {high}] lies beyond the float range"
                    )
        else:
            if self.mu <= 0.0:
                raise ConfigurationError(
                    f"exponential needs a positive mean, got {self.mu}"
                )
            # mu * mu overflows to inf, where mu**2 would raise OverflowError.
            variance = self.mu * self.mu
            if self.sigma2 is not None and not math.isclose(
                self.sigma2, variance, rel_tol=1e-9, abs_tol=1e-12
            ):
                raise ConfigurationError(
                    f"exponential variance is determined by the mean; "
                    f"expected {variance:.12g}, got {self.sigma2:.12g}"
                )

    @classmethod
    def from_dict(cls, data: Mapping) -> "DistributionSpec":
        try:
            family = data["family"]
            mu = data["mu"]
        except (TypeError, KeyError):
            raise ConfigurationError(
                f"distribution description needs 'family' and 'mu': {brief(repr(data))}"
            ) from None
        return cls(family=family, mu=mu, sigma2=data.get("sigma2"))

    def _uniform_bounds(self) -> tuple[float, float]:
        half_width = math.sqrt(3.0 * self.sigma2)
        return (self.mu - half_width, self.mu + half_width)

    @property
    def affine(self) -> tuple[float, float]:
        """``(offset, factor)`` such that ``offset + factor * x``, for a draw
        ``x`` of the family's standard law, is what numpy's ``normal(mu,
        sqrt(sigma2))``, ``uniform(low, high)`` or ``exponential(mu)``
        returns for the same bits.  The exponential's offset is 0, which
        leaves its nonnegative draws unchanged."""
        if self.family == "normal":
            return (self.mu, math.sqrt(self.sigma2))
        if self.family == "uniform":
            low, high = self._uniform_bounds()
            return (low, high - low)
        return (0.0, self.mu)


class GUSequence(_Frozen):
    """A generated sample sequence, kept as plain floats."""

    __slots__ = __match_args__ = ("elements",)

    elements: tuple[float, ...]

    def __init__(self, elements: tuple[float, ...]) -> None:
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, index):
        return self.elements[index]


def generate_sequence(
    specs: Sequence[DistributionSpec], k: int, seed: int = 0
) -> GUSequence:
    """Draw ``k`` elements from a mixture of ``specs``.

    For each output position one candidate is drawn from every spec, in
    spec order; after all ``k`` candidate rows are filled, ``k`` index
    draws pick which candidate each position keeps.  That fixed order is
    what makes a seed reproduce the exact sequence.
    """
    specs = tuple(specs)
    if not specs:
        raise ConfigurationError("at least one distribution is required")
    if k < 1:
        raise ConfigurationError(f"sequence length must be positive, got {k}")
    if k > MAX_K:
        raise ConfigurationError(f"sequence length must be at most {MAX_K}, got {k}")
    n = len(specs)
    if k * n > MAX_DRAWS:
        raise ConfigurationError(
            f"k times the number of distributions must be at most {MAX_DRAWS}, "
            f"got {k} * {n}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    # Imported here so that no other command pays numpy's import time.
    import numpy as np
    rng = np.random.default_rng(seed)
    offsets, factors = np.array([spec.affine for spec in specs]).T
    family = specs[0].family
    if all(spec.family == family for spec in specs):
        # One family: draw the k x n block of standard draws in one call,
        # in the same row-major order as the scalar draws, and keep each
        # row's picked draw.
        block = getattr(rng, STANDARD[family])((k, n))
        picks = rng.integers(0, n, size=k)
        kept = block[np.arange(k), picks]
    else:
        from ._replay import replay_mixed

        picks, kept = replay_mixed(rng, [spec.family for spec in specs], k)
    # Each kept draw x becomes x * factor + offset of its spec, in two roundings.
    with np.errstate(over="ignore", invalid="ignore"):
        kept *= factors[picks]
        kept += offsets[picks]
    # Overflows are inf here.
    finite = bool(np.isfinite(kept).all())
    elements = kept.tolist()
    if not finite:
        j = next(j for j, x in enumerate(elements) if not math.isfinite(x))
        raise ConfigurationError(
            f"element {j} drew {elements[j]}, which lies beyond the float range"
        )
    return GUSequence(tuple(elements))


def classify(
    items: Iterable[IntervalLike], delta: float
) -> list[list[int]]:
    """Partition item indices into neighbourhood classes.

    The first unclassed item becomes a pivot; every remaining item within
    ``delta`` of the pivot (on both endpoints) joins its class, and the
    sweep repeats.  Classes and their members keep input order, every
    index appears exactly once, and each class leads with its pivot.
    Neighbourhood is checked against the pivot only, so members of one
    class need not be within ``delta`` of each other.

    Only the unclassed items whose left endpoints lie in the δ-window
    around the pivot's are tested, found by bisection in an index sorted
    by left endpoint; the classes are the same as those of the full
    greedy sweep over every remaining item.
    """
    intervals = [as_interval(item) for item in items]
    if not delta >= 0.0:
        raise IntervalError(f"delta must be nonnegative, got {delta}")
    for i, iv in enumerate(intervals):
        if not iv.is_proper:
            raise IntervalError(f"item {i} is an inverse interval: {iv}")
    lefts = [iv.left for iv in intervals]
    rights = [iv.right for iv in intervals]
    # ``order`` holds the unclassed indices sorted stably by left endpoint;
    # the window bisects it by each index's left endpoint.
    order = sorted(range(len(intervals)), key=lefts.__getitem__)
    placed = [False] * len(intervals)
    # A member x of the pivot's class passes abs(left - x.left) <= delta in
    # floating point.  The subtraction rounds by at most 2**-53 of the exact
    # gap, and is exact when the gap is subnormal, so the exact gap is at
    # most delta / (1 - 2**-53), or delta itself when delta is subnormal;
    # reach is at least that.  Rounding is monotone and x.left is a float,
    # so fl(left - reach) <= x.left <= fl(left + reach): the window holds
    # every member, and the exact test below decides who joins.  A reach
    # that overflows to inf takes in every item; so does a delta beyond
    # the float range (a huge int), which cannot be multiplied as a float.
    reach = delta * (1.0 + 1e-12) if delta <= sys.float_info.max else math.inf
    classes: list[list[int]] = []
    for pivot in range(len(intervals)):
        if placed[pivot]:
            continue
        left, right = lefts[pivot], rights[pivot]
        lo = bisect_left(order, left - reach, key=lefts.__getitem__)
        hi = bisect_right(order, left + reach, lo, key=lefts.__getitem__)
        window = order[lo:hi]
        # delta_neighbour's two comparisons, on endpoints checked above.
        members = sorted(
            i for i in window
            if abs(left - lefts[i]) <= delta and abs(right - rights[i]) <= delta
        )
        for i in members:
            placed[i] = True
        classes.append(members)
        order[lo:hi] = [i for i in window if not placed[i]]
    return classes
