"""Uncertain variables with interval-valued laws, and their calculus.

Two families live here.  Discrete variables carry an interval mass per
support point and yield interval expectations and distribution values by
endpoint sums.  Function envelopes carry a pair of ordered cores (a lower
and an upper function) and yield interval answers to the usual calculus
questions: limits, derivatives, increments and integrals are computed per
core and bracketed.

Mass laws follow the coherent/strict normalization law of measure spaces,
:func:`gutheory.spaces.sum_law_violations`.  Endpoint sums, the composite
trapezoid rule on each envelope's own grid included, go through
:func:`gutheory.intervals.endpoint_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    ConfigurationError,
    ConvergenceError,
    EnvelopeError,
    IntervalError,
    NestingError,
    ValidationError,
    brief_repr,
)
from .intervals import (
    DEFAULT_TOLERANCE,
    GUInterval,
    IntervalLike,
    _real,
    as_interval,
    endpoint_sum,
    gud,
    normalize,
)
from .spaces import MODES, sum_law_violations


def _law_violations(masses: Sequence[GUInterval], mode: str, what: str) -> list[str]:
    """Mass-law checks for discrete and joint variables: every mass inside
    ``[0, 1]``, then the measure spaces' normalization law."""
    bad = [i for i, m in enumerate(masses) if not m.is_measure_valid]
    if bad:
        return [f"{what} at positions {bad} must lie inside [0, 1]"]
    return sum_law_violations(masses, mode, DEFAULT_TOLERANCE, f"{what} endpoint")


def _values_violations(values: Sequence[float], what: str) -> list[str]:
    try:
        values = [_real(v, ValidationError, f"{what} must be finite, got ") for v in values]
    except ValidationError as err:
        return list(err.violations)
    if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
        return [f"{what} must be strictly increasing"]
    return []


@dataclass(frozen=True)
class DiscreteGUVariable:
    """A variable on finitely many points with interval masses.

    ``values`` must be strictly increasing and ``masses`` aligned with
    them.  The mass law obeys the same coherent/strict discipline as
    measure spaces.
    """

    values: tuple[float, ...]
    masses: tuple[GUInterval, ...]
    mode: str = "coherent"

    def __post_init__(self) -> None:
        object.__setattr__(self, "masses", tuple(map(as_interval, self.masses)))
        problems = []
        if not self.values:
            problems.append("the support is empty")
        if len(self.values) != len(self.masses):
            problems.append(
                f"{len(self.values)} values but {len(self.masses)} masses"
            )
        if self.mode not in MODES:
            problems.append(
                f"unknown mode {brief_repr(self.mode)}; expected one of {MODES}"
            )
        problems += _values_violations(self.values, "support values")
        if not problems:
            problems += _law_violations(self.masses, self.mode, "mass")
        if problems:
            raise ValidationError(problems)

    def mass(self, x: float) -> GUInterval:
        """Interval mass at ``x``; ``[0, 0]`` off the support."""
        for v, m in zip(self.values, self.masses):
            if v == x:
                return m
        return GUInterval(0.0, 0.0)

    def distribution_at(self, x: float) -> GUInterval:
        """Cumulative interval law: endpoint sums of masses at points <= x.

        The sums are returned raw.  Below the support this is ``[0, 0]``;
        at or above the largest point it is the full mass total, whose
        upper endpoint may exceed 1 in coherent mode.
        """
        return endpoint_sum(m for v, m in zip(self.values, self.masses) if v <= x)

    def expectation(self) -> GUInterval:
        """Interval expected value ``[sum x*left, sum x*right]``.

        With negative support points the result can come out inverse;
        it is returned unnormalized so the endpoint provenance survives.
        """
        return endpoint_sum(self.masses, self.values)

    @property
    def is_degenerate(self) -> bool:
        return all(gud(m) <= DEFAULT_TOLERANCE for m in self.masses)


@dataclass(frozen=True)
class JointDiscreteGUVariable:
    """A pair of discrete variables with interval masses on the product grid.

    ``cells[i][j]`` is the mass of ``(row_values[i], col_values[j])``.  The
    coherence discipline applies to the grand total over all cells.
    """

    row_values: tuple[float, ...]
    col_values: tuple[float, ...]
    cells: tuple[tuple[GUInterval, ...], ...]
    mode: str = "coherent"

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(map(as_interval, r)) for r in self.cells))
        problems = []
        if not self.row_values or not self.col_values:
            problems.append("both supports must be non-empty")
        problems += _values_violations(self.row_values, "row values")
        problems += _values_violations(self.col_values, "column values")
        if len(self.cells) != len(self.row_values):
            problems.append(
                f"{len(self.row_values)} rows of values but {len(self.cells)} "
                "rows of cells"
            )
        elif any(len(row) != len(self.col_values) for row in self.cells):
            problems.append("every cell row must match the column support length")
        if self.mode not in MODES:
            problems.append(
                f"unknown mode {brief_repr(self.mode)}; expected one of {MODES}"
            )
        if not problems:
            flat = [m for row in self.cells for m in row]
            problems += _law_violations(flat, self.mode, "cell mass")
        if problems:
            raise ValidationError(problems)

    def marginals(self) -> tuple[tuple[GUInterval, ...], tuple[GUInterval, ...]]:
        """Raw row and column mass sums.

        Returned as plain intervals rather than variables because a
        coherent joint law can give a marginal whose upper endpoint
        exceeds 1.
        """
        rows = tuple(endpoint_sum(row) for row in self.cells)
        cols = tuple(endpoint_sum(col) for col in zip(*self.cells))
        return rows, cols


class CovarianceResult(NamedTuple):
    """Normalized interval covariance plus a flag telling whether the raw
    endpoint computation came out inverse (left above right)."""

    interval: GUInterval
    was_inverse: bool


def covariance(joint: JointDiscreteGUVariable) -> CovarianceResult:
    """Interval covariance of a joint discrete variable.

    Marginal interval expectations are formed first; each support point is
    then centred endpoint-wise against them and the centred products are
    weighted by the cell masses, lower with lower and upper with upper.
    Centred products carry signs, so the raw result is frequently inverse;
    it is normalized and the orientation reported alongside.
    """
    rows, cols = joint.marginals()
    e1 = endpoint_sum(rows, joint.row_values)
    e2 = endpoint_sum(cols, joint.col_values)
    raw = endpoint_sum(
        GUInterval(
            (x - e1.left) * (y - e2.left) * m.left,
            (x - e1.right) * (y - e2.right) * m.right,
        )
        for x, row in zip(joint.row_values, joint.cells)
        for y, m in zip(joint.col_values, row)
    )
    return CovarianceResult(normalize(raw), not raw.is_proper)


# ---------------------------------------------------------------------------
# Function envelopes and their calculus


ENVELOPE_KINDS = ("free", "density")

#: Grid size used by every envelope for validation, quadrature and finite
#: differences.
RESOLUTION = 1025


@dataclass(frozen=True, eq=False)
class GUFunctionEnvelope:
    """A pair of ordered cores bracketing an unknown function on a domain.

    ``lower(x) <= upper(x)`` must hold across the whole domain; this is
    checked on the envelope's grid at construction.  ``kind`` selects an
    additional range rule:

    * ``"free"``: no range constraint.
    * ``"density"``: both cores are nonnegative.

    Every check and every calculus operation works on a grid of
    :data:`RESOLUTION` points.
    """

    lower: Callable[[float], float]
    upper: Callable[[float], float]
    domain: tuple[float, float]
    kind: str = "free"

    def __post_init__(self) -> None:
        problems = []
        try:
            domain = as_interval(self.domain)
        except IntervalError as err:
            raise ValidationError(f"domain: {err}") from None
        lo, hi = domain.left, domain.right
        object.__setattr__(self, "domain", (lo, hi))
        if lo >= hi:
            problems.append(f"domain must be an ordered pair, got {self.domain}")
        elif not math.isfinite(hi - lo):
            problems.append(f"domain [{lo}, {hi}] is wider than the float range")
        elif (hi - lo) / (RESOLUTION - 1) == 0.0:
            problems.append(
                f"domain [{lo}, {hi}] is too narrow for a grid of {RESOLUTION} points"
            )
        if self.kind not in ENVELOPE_KINDS:
            problems.append(
                f"unknown kind {brief_repr(self.kind)}; expected one of {ENVELOPE_KINDS}"
            )
        if not problems:
            problems += self._core_violations()
        if problems:
            raise ValidationError(problems)

    def _core_violations(self) -> list[str]:
        problems = []
        for x in self.grid():
            try:
                f1 = _real(self.lower(x), ValidationError, "the lower core gave ")
                f2 = _real(self.upper(x), ValidationError, "the upper core gave ")
            except Exception as exc:
                problems.append(f"core evaluation failed at x={x:.6g}: {exc}")
                return problems
            if f1 - f2 > DEFAULT_TOLERANCE:
                problems.append(
                    f"lower core exceeds upper core at x={x:.6g} "
                    f"({f1:.6g} > {f2:.6g})"
                )
                return problems
            if self.kind == "density" and f1 < -DEFAULT_TOLERANCE:
                problems.append(f"density core is negative at x={x:.6g}")
                return problems
        return problems

    def grid(self, a: float | None = None, b: float | None = None) -> list[float]:
        """Evaluation grid of :data:`RESOLUTION` evenly spaced points over
        ``[a, b]`` (defaulting to the whole domain)."""
        lo = self.domain[0] if a is None else a
        hi = self.domain[1] if b is None else b
        step = (hi - lo) / (RESOLUTION - 1)
        return [lo + i * step for i in range(RESOLUTION - 1)] + [hi]

    def _require(self, x: float, label: str) -> float:
        """``x`` as a float, which must lie in the domain."""
        lo, hi = self.domain
        domain_text = f"{label} must lie in the domain [{lo:.6g}, {hi:.6g}], got "
        return _real(x, EnvelopeError, domain_text, lo, hi)


def gu_limit(env: GUFunctionEnvelope, x0: float) -> GUInterval:
    """Interval limit of the envelope at ``x0``: each core's limit, taken
    as its value when that is finite and by grid approach otherwise."""
    x0 = env._require(x0, "limit point")
    return GUInterval(_core_limit(env, env.lower, x0), _core_limit(env, env.upper, x0))


def _core_limit(env: GUFunctionEnvelope, core: Callable[[float], float], x0: float) -> float:
    try:
        return _real(core(x0), ConvergenceError, "the core gave ")
    except Exception:
        pass
    lo, hi = env.domain
    sides = []
    for sign in (-1.0, 1.0):
        if (sign < 0 and x0 <= lo) or (sign > 0 and x0 >= hi):
            continue
        h = (hi - lo) / 8.0
        previous = None
        for _ in range(60):
            x = x0 + sign * h
            if not lo <= x <= hi:
                h *= 0.5
                continue
            try:
                v = _real(core(x), ConvergenceError, "the core gave ")
            except Exception:
                h *= 0.5
                continue
            if previous is not None and abs(v - previous) <= 1e-9:
                sides.append(v)
                break
            previous = v
            h *= 0.5
        else:
            raise ConvergenceError(
                f"core values do not settle while approaching x={x0:.6g}"
            )
    if not sides:
        raise ConvergenceError(f"no admissible approach direction at x={x0:.6g}")
    if len(sides) == 2 and abs(sides[0] - sides[1]) > 1e-6:
        raise ConvergenceError(
            f"one-sided limits disagree at x={x0:.6g}: {sides[0]:.6g} vs {sides[1]:.6g}"
        )
    # Halving before adding keeps limits near the float maximum finite; for
    # normal floats it gives the same number as halving the sum.
    return sides[0] / 2 + sides[-1] / 2


def gu_derivative(env: GUFunctionEnvelope, x0: float) -> GUInterval:
    """Interval derivative at ``x0``.

    Each core is differenced at the envelope's grid spacing, centrally
    where both neighbours fit in the domain and one-sided at the edges;
    the two slopes are then bracketed.
    """
    x0 = env._require(x0, "derivative point")
    lo, hi = env.domain
    h = (hi - lo) / (RESOLUTION - 1)

    def diff(core: Callable[[float], float]) -> float:
        if x0 - h >= lo and x0 + h <= hi:
            return (core(x0 + h) - core(x0 - h)) / (2.0 * h)
        if x0 + h <= hi:
            return (core(x0 + h) - core(x0)) / h
        return (core(x0) - core(x0 - h)) / h

    d1, d2 = diff(env.lower), diff(env.upper)
    return GUInterval(min(d1, d2), max(d1, d2))


def gu_variation(env: GUFunctionEnvelope, x0: float, delta: float) -> GUInterval:
    """Interval increment over ``[x0, x0 + delta]`` for ``delta > 0``.

    The least possible increment moves from the upper core down to the
    lower one, the greatest from the lower core up to the upper one, so
    the result is ``[lower(x0+d) - upper(x0), upper(x0+d) - lower(x0)]``.
    """
    x0 = env._require(x0, "variation point")
    delta_text = "variation needs a positive increment, got "
    delta = _real(delta, EnvelopeError, delta_text, math.ulp(0.0))
    env._require(x0 + delta, "variation endpoint")
    return GUInterval(
        env.lower(x0 + delta) - env.upper(x0),
        env.upper(x0 + delta) - env.lower(x0),
    )


def _trapezoid(xs: list[float], pairs: Iterable[Sequence[float]]) -> GUInterval:
    """Trapezoid rule on ``xs``: each point's pair weighs half the gaps beside it.

    The weights are the whole gaps and the sum is halved once, because
    half of a subnormal gap can round to zero and drop its point.
    """
    gaps = [0.0] + [b - a for a, b in zip(xs, xs[1:])] + [0.0]
    weights = [before + after for before, after in zip(gaps, gaps[1:])]
    twice = endpoint_sum((GUInterval(*pair) for pair in pairs), weights)
    return GUInterval(twice.left / 2, twice.right / 2)


def gu_integral(env: GUFunctionEnvelope, a: float, b: float) -> GUInterval:
    """Interval integral over ``[a, b]`` by the trapezoid rule on a fresh
    grid of :data:`RESOLUTION` points."""
    a = env._require(a, "integration bound")
    b = env._require(b, "integration bound")
    if a > b:
        raise EnvelopeError(f"integration bounds are reversed: [{a:.6g}, {b:.6g}]")
    xs = env.grid(a, b)
    return _trapezoid(xs, ((env.lower(x), env.upper(x)) for x in xs))


def density_expectation(env: GUFunctionEnvelope) -> GUInterval:
    """Interval expected value of a density envelope.

    Integrates the pointwise minimum and maximum of ``x * lower(x)`` and
    ``x * upper(x)`` over the domain, which handles sign changes without
    any case split.  Requires ``kind == "density"``.
    """
    if env.kind != "density":
        raise ConfigurationError(
            f"expected a density envelope, got kind {env.kind!r}"
        )
    xs = env.grid()
    return _trapezoid(xs, (sorted((x * env.lower(x), x * env.upper(x))) for x in xs))


# ---------------------------------------------------------------------------
# Nested interval sequences


class NestedLimit(NamedTuple):
    """Limit read off a nested interval sequence: the midpoint of the last
    interval and half its width as the error bound."""

    estimate: float
    error_bound: float


def nested_limit(sequence: Iterable[IntervalLike]) -> NestedLimit:
    """Common-point estimate of a shrinking chain of closed intervals.

    Every interval must be proper and contained in its predecessor
    (:class:`~gutheory.errors.NestingError` reports the first offender).
    A chain longer than one element whose final width has not shrunk at
    all raises :class:`~gutheory.errors.ConvergenceError`; the estimate
    would carry no more information than the starting interval.
    """
    items = [as_interval(s) for s in sequence]
    if not items:
        raise IntervalError("cannot take the limit of an empty interval sequence")
    for k, iv in enumerate(items):
        if not iv.is_proper:
            raise IntervalError(f"interval {k} of the sequence is inverse: {iv}")
        if k and not (items[k - 1].left <= iv.left and iv.right <= items[k - 1].right):
            raise NestingError(
                k, f"interval {k} ({iv}) is not contained in interval {k - 1} "
                f"({items[k - 1]})"
            )
    last = items[-1]
    if len(items) > 1 and last.left < last.right and last == items[0]:
        raise ConvergenceError(
            f"no width shrinkage across the sequence: the last interval {last} "
            "equals the first"
        )
    width = last.right - last.left
    # A width beyond the float range is halved endpoint by endpoint, which
    # is exact for endpoints that large.
    half = 0.5 * width if math.isfinite(width) else 0.5 * last.right - 0.5 * last.left
    return NestedLimit(last.midpoint, half)
