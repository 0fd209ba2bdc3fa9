"""Interval-valued uncertainty measures and their pointwise calculus.

The scalar object of this package is a pair of bounds ``[left, right]``
attached to an event: ``left`` is the least degree of belief that the event
occurs, ``right`` the greatest.  A classical probability is the degenerate
case ``left == right``.  This module provides the value type plus every
pointwise operation the rest of the package builds on: endpoint-wise
arithmetic, the weighted endpoint sum, complement, orientation helpers,
the uncertainty degree, the neighbourhood test and the seven-way order
classifier.

Arithmetic here is deliberately endpoint-wise,

    [a1, b1] * [a2, b2] = [a1 * a2, b1 * b2]

and likewise for the other operations, pairing lower with lower and upper
with upper.  That is not the min/max convention of classical interval
arithmetic, and the two disagree on signed inputs.  No min/max mode is
offered, so results from the two conventions cannot be silently mixed.

Subtraction and division may produce an *inverse* interval whose left bound
exceeds its right one.  Inverse intervals are legal values: they keep the
information about which bound came from which side.  Operations that need a
proper interval (``gud``, ``compare``, ``delta_neighbour``) say so and
refuse inverse input; use :func:`normalize` first when only the enclosure
matters.
"""

from __future__ import annotations

import math
from enum import Enum, unique
from typing import Iterable, Sequence, Union

from .errors import IntervalError, brief

#: Comparison slack used by every tolerance-aware predicate in the package.
DEFAULT_TOLERANCE = 1e-9


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__match_args__``, sets each in its
    constructor with ``object.__setattr__``, and gets the behaviour of a
    frozen dataclass: equal to an instance of the same class with equal
    fields, hashed and shown by its fields, and never assigned again.
    The package defines no dataclass on the command line's path, because
    importing ``dataclasses`` loads ``inspect`` and every decorator runs
    at import.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields())
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class GUInterval(_Frozen):
    """An interval-valued measure or payoff aggregate ``[left, right]``.

    Instances are immutable and safe to share between threads.  Endpoints
    must be finite; beyond that the full real line is allowed, because
    arithmetic on measures quickly leaves ``[0, 1]`` (expected values,
    centred moments).  Use :attr:`is_measure_valid` where the unit range
    is actually required.
    """

    __slots__ = __match_args__ = ("left", "right")

    left: float
    right: float

    def __init__(self, left: float, right: float) -> None:
        left, right = float(left), float(right)
        if not (math.isfinite(left) and math.isfinite(right)):
            raise IntervalError(f"interval endpoints must be finite, got [{left}, {right}]")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def is_proper(self) -> bool:
        """True when ``left <= right`` (the usual orientation)."""
        return self.left <= self.right

    @property
    def is_measure_valid(self) -> bool:
        """True when the interval is proper and contained in ``[0, 1]``."""
        return 0.0 <= self.left <= self.right <= 1.0

    @property
    def midpoint(self) -> float:
        total = self.left + self.right
        # The sum overflows only when both endpoints are so large that
        # halving each of them first is exact.
        return 0.5 * total if math.isfinite(total) else 0.5 * self.left + 0.5 * self.right

    def __str__(self) -> str:
        return f"[{self.left:g}, {self.right:g}]"


#: Anything :func:`as_interval` accepts: an interval or a two-item sequence.
IntervalLike = Union[GUInterval, Sequence[float]]


def as_interval(value: IntervalLike) -> GUInterval:
    """Coerce ``value`` to a :class:`GUInterval`.

    Accepts an existing interval (returned unchanged) or any two-item
    sequence of numbers, which is how intervals arrive from JSON.
    """
    if isinstance(value, GUInterval):
        return value
    try:
        left, right = map(float, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IntervalError(f"cannot read {brief(repr(value))} as an interval") from exc
    return GUInterval(left, right)


def add(i1: GUInterval, i2: GUInterval) -> GUInterval:
    return GUInterval(i1.left + i2.left, i1.right + i2.right)


def sub(i1: GUInterval, i2: GUInterval) -> GUInterval:
    """Endpoint-wise difference.  May produce an inverse interval, e.g.
    ``sub([0.3, 0.4], [0.1, 0.3]) == [0.2, 0.1]``."""
    return GUInterval(i1.left - i2.left, i1.right - i2.right)


def mul(i1: GUInterval, i2: GUInterval) -> GUInterval:
    return GUInterval(i1.left * i2.left, i1.right * i2.right)


def div(i1: GUInterval, i2: GUInterval) -> GUInterval:
    """Endpoint-wise quotient.  Both denominator endpoints must be nonzero;
    pairing is strictly left/left and right/right, so a zero on either side
    would poison its own endpoint."""
    if i2.left == 0.0 or i2.right == 0.0:
        raise IntervalError(
            "division requires both denominator endpoints to be nonzero, "
            f"got denominator {i2}"
        )
    return GUInterval(i1.left / i2.left, i1.right / i2.right)


def endpoint_sum(
    intervals: Iterable[GUInterval], weights: Iterable[float] | None = None
) -> GUInterval:
    """Weighted endpoint sum ``[sum w * left, sum w * right]``.

    Weights default to 1 and pair with the intervals in order.  Every
    endpoint sum of the package goes through here: ``math.fsum`` rounds
    exactly once, so the result does not depend on the order of the
    terms, and a sum beyond the float range is an :class:`IntervalError`
    rather than an ``OverflowError``.
    """
    intervals = tuple(intervals)
    weights = (1.0,) * len(intervals) if weights is None else tuple(weights)
    try:
        left = math.fsum(w * i.left for w, i in zip(weights, intervals))
        right = math.fsum(w * i.right for w, i in zip(weights, intervals))
    except (OverflowError, ValueError):
        raise IntervalError("endpoint sum overflows the float range") from None
    return GUInterval(left, right)


def inverse(i: GUInterval) -> GUInterval:
    """Swap the endpoints.  Applied twice this is the identity."""
    return GUInterval(i.right, i.left)


def normalize(i: GUInterval) -> GUInterval:
    """Return the proper version of ``i`` (endpoints in ascending order)."""
    return i if i.left <= i.right else GUInterval(i.right, i.left)


def complement(i: GUInterval) -> GUInterval:
    """Measure of the complementary event, ``[1 - left, 1 - right]``.

    The result is an inverse interval whenever ``i`` is proper and
    non-degenerate, which is intentional: the greatest belief in "not A"
    comes from the least belief in "A".  Inverse input is accepted for the
    same reason, so complementing twice is the identity; only the unit
    range is required of the endpoints.
    """
    if not (0.0 <= i.left <= 1.0 and 0.0 <= i.right <= 1.0):
        raise IntervalError(f"complement needs endpoints inside [0, 1], got {i}")
    return GUInterval(1.0 - i.left, 1.0 - i.right)


def gud(i: GUInterval) -> float:
    """Generalized uncertainty degree: the width ``right - left``.

    Zero exactly when the interval is degenerate, i.e. a classical
    probability.  Refuses inverse intervals (normalize first if a bare
    enclosure width is wanted) and widths beyond the float range.
    """
    if not i.is_proper:
        raise IntervalError(f"uncertainty degree needs a proper interval, got {i}")
    width = i.right - i.left
    if not math.isfinite(width):
        raise IntervalError(f"the width of {i} lies beyond the float range")
    return width


def delta_neighbour(i1: GUInterval, i2: GUInterval, delta: float) -> bool:
    """True when both endpoint gaps are at most ``delta``.

    The test is symmetric, reflexive for any ``delta >= 0``, and monotone
    in ``delta``.  It is *not* transitive, which is why the classing
    algorithm built on it fixes a pivot per class.
    """
    if not delta >= 0.0:
        raise IntervalError(f"delta must be nonnegative, got {delta}")
    for i in (i1, i2):
        if not i.is_proper:
            raise IntervalError(f"delta neighbourhood needs proper intervals, got {i}")
    return abs(i1.left - i2.left) <= delta and abs(i1.right - i2.right) <= delta


@unique
class Relation(Enum):
    """Outcome of the seven-way interval order classifier.

    Each member's ``mirrored`` is the verdict with the argument order
    flipped: ``compare(b, a) is compare(a, b).mirrored``.
    """

    EQUAL = "Equal"
    STRONGLY_SMALLER = "StronglySmaller"
    STRONGLY_GREATER = "StronglyGreater"
    PARTLY_SMALLER = "PartlySmaller"
    PARTLY_GREATER = "PartlyGreater"
    WEAKLY_SMALLER = "WeaklySmaller"
    WEAKLY_GREATER = "WeaklyGreater"


# A plain attribute set once, not a property: ``relation_matrix`` reads it
# for every cell below the diagonal, and ``decide`` for the column entries
# after the last best.
for _a, _b in (
    (Relation.EQUAL, Relation.EQUAL),
    (Relation.STRONGLY_SMALLER, Relation.STRONGLY_GREATER),
    (Relation.PARTLY_SMALLER, Relation.PARTLY_GREATER),
    (Relation.WEAKLY_SMALLER, Relation.WEAKLY_GREATER),
):
    _a.mirrored, _b.mirrored = _b, _a
del _a, _b


def compare(i1: GUInterval, i2: GUInterval, tol: float = DEFAULT_TOLERANCE) -> Relation:
    """Classify the order of two proper intervals.

    Checks run in a fixed precedence and the first hit wins, so exactly one
    tag comes back for every pair:

    1. ``Equal``             both endpoint gaps within ``tol``.
    2. ``StronglySmaller``   ``right1 < left2``: the intervals are separated,
       every value of the first sits below every value of the second.
       ``StronglyGreater`` is the mirror image.
    3. ``PartlySmaller``     ``left1 > left2`` and ``right1 <= right2``: the
       first interval starts strictly inside the second and does not reach
       past it, a containment rather than a ranking.  ``PartlyGreater``
       mirrors it (the first properly contains the second).
    4. ``WeaklySmaller``     ``left1 <= left2`` and ``right1 <= right2``:
       both bounds shifted the same way.  ``WeaklyGreater`` mirrors it.

    Strict tests mean "beyond ``tol``" (``y - x > tol`` for ``x < y``),
    loose ones "up to ``tol``" (``x - y <= tol`` for ``x <= y``).  The
    containment branch requires the left endpoint to move strictly: an
    interval sharing its left bound with a longer one counts as weakly
    smaller, not as contained.  That keeps the classifier consistent with
    measure monotonicity, where growing an event may leave the lower bound
    in place and must never read as containment.
    """
    for i in (i1, i2):
        if not i.is_proper:
            raise IntervalError(f"comparison needs proper intervals, got {i}")
    if not 0.0 <= tol < math.inf:
        raise IntervalError(f"tolerance must be finite and nonnegative, got {tol}")
    return _classify(i1.left, i1.right, i2.left, i2.right, tol)


def _classify(a1: float, b1: float, a2: float, b2: float, tol: float) -> Relation:
    """:func:`compare` on the endpoints ``[a1, b1]`` and ``[a2, b2]``, which
    the caller has already checked, as it has ``tol``."""
    eq_left = abs(a1 - a2) <= tol
    eq_right = abs(b1 - b2) <= tol
    if eq_left and eq_right:
        return Relation.EQUAL
    if a2 - b1 > tol:
        return Relation.STRONGLY_SMALLER
    if a1 - b2 > tol:
        return Relation.STRONGLY_GREATER
    if a1 - a2 > tol and b1 - b2 <= tol:
        return Relation.PARTLY_SMALLER
    if a2 - a1 > tol and b2 - b1 <= tol:
        return Relation.PARTLY_GREATER
    if a1 - a2 <= tol and b1 - b2 <= tol:
        return Relation.WEAKLY_SMALLER
    return Relation.WEAKLY_GREATER
