"""Sequence generation from distribution mixtures, and neighbourhood classing.

Randomness comes from NumPy's ``default_rng`` (the PCG64 bit generator).
The draw order inside :func:`generate_sequence` is part of the contract:
identical seeds give identical sequences across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, IntervalError
from .intervals import IntervalLike, as_interval, delta_neighbour

FAMILIES = ("normal", "uniform", "exponential")


@dataclass(frozen=True, slots=True)
class DistributionSpec:
    """A sampling distribution described by its mean and variance.

    ``family`` is one of ``"normal"``, ``"uniform"`` or ``"exponential"``.
    The uniform family is parameterized by moments like the others; its
    bounds are recovered as ``mu +/- sqrt(3 * sigma2)``.  An exponential
    has variance ``mu**2``, so ``sigma2`` may be omitted for it; when
    given it must agree.
    """

    family: str
    mu: float
    sigma2: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        object.__setattr__(self, "mu", float(self.mu))
        if not math.isfinite(self.mu):
            raise ConfigurationError(f"mu must be finite, got {self.mu}")
        if self.sigma2 is not None:
            object.__setattr__(self, "sigma2", float(self.sigma2))
        if self.family in ("normal", "uniform"):
            if self.sigma2 is None or not math.isfinite(self.sigma2) or self.sigma2 <= 0.0:
                raise ConfigurationError(
                    f"{self.family} needs a positive variance, got {self.sigma2!r}"
                )
        else:
            if self.mu <= 0.0:
                raise ConfigurationError(
                    f"exponential needs a positive mean, got {self.mu}"
                )
            if self.sigma2 is not None and not math.isclose(
                self.sigma2, self.mu**2, rel_tol=1e-9, abs_tol=1e-12
            ):
                raise ConfigurationError(
                    f"exponential variance is determined by the mean; "
                    f"expected {self.mu**2:.12g}, got {self.sigma2:.12g}"
                )

    @classmethod
    def from_dict(cls, data: Mapping) -> "DistributionSpec":
        try:
            family = data["family"]
            mu = data["mu"]
        except (TypeError, KeyError):
            raise ConfigurationError(
                f"distribution description needs 'family' and 'mu': {data!r}"
            ) from None
        return cls(family=family, mu=mu, sigma2=data.get("sigma2"))

    def sample(self, rng: np.random.Generator) -> float:
        if self.family == "normal":
            return float(rng.normal(self.mu, math.sqrt(self.sigma2)))
        if self.family == "uniform":
            half_width = math.sqrt(3.0 * self.sigma2)
            return float(rng.uniform(self.mu - half_width, self.mu + half_width))
        return float(rng.exponential(self.mu))


@dataclass(frozen=True, slots=True)
class GUSequence:
    """A generated sample sequence, kept as plain floats."""

    elements: tuple[float, ...]

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
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    rows = [[spec.sample(rng) for spec in specs] for _ in range(k)]
    picks = rng.integers(0, len(specs), size=k)
    return GUSequence(tuple(rows[j][picks[j]] for j in range(k)))


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
    """
    intervals = [as_interval(item) for item in items]
    if not delta >= 0.0:
        raise IntervalError(f"delta must be nonnegative, got {delta}")
    for i, iv in enumerate(intervals):
        if not iv.is_proper:
            raise IntervalError(f"item {i} is an inverse interval: {iv}")
    classes: list[list[int]] = []
    remaining = list(range(len(intervals)))
    while remaining:
        pivot = remaining[0]
        members = [
            i for i in remaining if delta_neighbour(intervals[pivot], intervals[i], delta)
        ]
        classes.append(members)
        taken = set(members)
        remaining = [i for i in remaining if i not in taken]
    return classes
