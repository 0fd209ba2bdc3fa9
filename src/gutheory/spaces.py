"""Finite spaces of interval-valued measures over named atoms.

A space fixes a finite set of elementary outcomes (atoms), assigns each an
interval measure, and answers event queries by adding atom intervals
endpoint-wise.  Events are plain iterables of atom names; there is no
wrapper class.

Two validation modes exist because interval assignments rarely satisfy the
scalar normalization ``sum == 1`` on both endpoints at once.  Both are
stated once, in :func:`sum_law_violations`, which the discrete variables of
:mod:`gutheory.variables` apply to their masses as well:

``"coherent"`` (default)
    Lower endpoints may sum to at most 1 and upper endpoints to at least 1.
    The bounds then bracket at least one classical probability vector.  The
    full space has measure ``[1, 1]`` by axiom and composite sums are
    clipped back into ``[0, 1]``.

``"strict"``
    Both endpoint sums must equal 1 (within tolerance).  Together with the
    per-atom ordering this forces every atom interval to be degenerate up
    to tolerance, so strict spaces are finite probability distributions in
    all but name.  The mode exists for callers who want that collapse
    enforced at the door.

All endpoint sums go through :func:`~gutheory.intervals.endpoint_sum`, so
results do not depend on atom enumeration order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import (
    ConditioningError,
    DegeneracyError,
    EventError,
    ValidationError,
    brief_repr,
)
from .intervals import (
    DEFAULT_TOLERANCE,
    _TOLERANCE,
    GUInterval,
    IntervalLike,
    _Frozen,
    _real,
    add,
    as_interval,
    div,
    endpoint_sum,
    gud,
    mul,
    sub,
)

MODES = ("coherent", "strict")

#: Ceiling on the atom count; event queries are linear in it, but callers
#: enumerating subsets will not thank us for allowing thousands.
MAX_ATOMS = 64


def sum_law_violations(
    intervals: Iterable[GUInterval], mode: str, tolerance: float, what: str
) -> list[str]:
    """The normalization law on the endpoint sums of ``intervals``.

    Coherent mode needs the lower sum at most 1 and the upper sum at least
    1; strict mode needs both equal to 1, within ``tolerance``.  ``what``
    names one endpoint in the messages (``"endpoint"``, ``"mass
    endpoint"``).
    """
    total = endpoint_sum(intervals)
    low, high = total.left, total.right
    if mode == "strict":
        if abs(low - 1.0) > tolerance or abs(high - 1.0) > tolerance:
            return [
                f"strict mode requires both {what} sums to equal 1, got "
                f"left sum {low:.12g} and right sum {high:.12g}"
            ]
        return []
    problems = []
    if low - 1.0 > tolerance:
        problems.append(f"lower {what}s sum to {low:.12g}, which exceeds 1")
    if 1.0 - high > tolerance:
        problems.append(f"upper {what}s sum to {high:.12g}, which falls short of 1")
    return problems


def axiom_violations(
    atoms: Iterable[str],
    assignment: Mapping[str, IntervalLike],
    mode: str = "coherent",
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[str, ...]:
    """Check a proposed space against every construction rule at once.

    Returns one message per broken rule and an empty tuple for a valid
    space.  Collecting everything in one pass is what lets the command
    line report a full diagnosis instead of the first failure.  A space
    with more than :data:`MAX_ATOMS` atoms gets only that message, and
    each echoed name or list is cut short, so the messages stay bounded.
    """
    atoms = tuple(atoms)
    if len(atoms) > MAX_ATOMS:
        return (f"{len(atoms)} atoms exceed the limit of {MAX_ATOMS}",)
    problems: list[str] = []

    if not atoms:
        problems.append("the atom list is empty")
    if len(set(atoms)) != len(atoms):
        seen: set[str] = set()
        dupes = sorted({a for a in atoms if a in seen or seen.add(a)})
        problems.append(f"duplicate atoms: {brief_repr(dupes)}")
    for a in atoms:
        if not isinstance(a, str) or not a:
            problems.append(f"atom names must be non-empty strings, got {brief_repr(a)}")

    missing = [a for a in atoms if a not in assignment]
    if missing:
        problems.append(f"atoms without a measure: {brief_repr(missing)}")
    extra = sorted(set(assignment) - set(atoms))
    if extra:
        problems.append(f"measures for unknown atoms: {brief_repr(extra)}")

    if mode not in MODES:
        problems.append(f"unknown mode {brief_repr(mode)}; expected one of {MODES}")
    try:
        tolerance = _real(tolerance, ValidationError, _TOLERANCE, 0.0)
    except ValidationError as err:
        problems += err.violations
        tolerance = DEFAULT_TOLERANCE

    usable: dict[str, GUInterval] = {}
    for a in atoms:
        if a not in assignment:
            continue
        try:
            iv = as_interval(assignment[a])
        except Exception:
            problems.append(
                f"atom {brief_repr(a)}: {brief_repr(assignment[a])} is not an interval"
            )
            continue
        if not iv.is_measure_valid:
            problems.append(
                f"atom {brief_repr(a)}: measure {iv} must satisfy 0 <= left <= right <= 1"
            )
            continue
        usable[a] = iv

    if not problems and usable:
        problems += sum_law_violations(usable.values(), mode, tolerance, "endpoint")
    return tuple(problems)


class GUMeasureSpace(_Frozen):
    """An immutable finite space of interval measures.

    Constructing one runs the full axiom check, within
    :data:`~gutheory.intervals.DEFAULT_TOLERANCE`, and raises
    :class:`~gutheory.errors.ValidationError` listing every violation.
    Plain ``[left, right]`` pairs in ``assignment`` are coerced to
    intervals.
    """

    __slots__ = __match_args__ = ("atoms", "assignment", "mode")

    atoms: tuple[str, ...]
    assignment: Mapping[str, GUInterval]
    mode: str

    def __init__(
        self,
        atoms: Iterable[str],
        assignment: Mapping[str, IntervalLike],
        mode: str = "coherent",
    ) -> None:
        atoms = tuple(atoms)
        problems = axiom_violations(atoms, assignment, mode)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "assignment", {a: as_interval(assignment[a]) for a in atoms})
        object.__setattr__(self, "mode", mode)

    # -- event plumbing -------------------------------------------------

    def _members(self, event: Iterable[str]) -> frozenset[str]:
        members = frozenset(event)
        unknown = members.difference(self.atoms)
        if unknown:
            raise EventError(f"event names unknown atoms: {brief_repr(sorted(unknown))}")
        return members

    def _sum(self, members: frozenset[str]) -> GUInterval:
        return endpoint_sum(self.assignment[a] for a in self.atoms if a in members)

    # -- queries --------------------------------------------------------

    def measure(self, event: Iterable[str]) -> GUInterval:
        """Interval measure of an event.

        The empty event is ``[0, 0]`` and the full space ``[1, 1]``, both
        axiomatic regardless of what the atom sums would give.  Other
        events are endpoint sums over their atoms; in coherent mode the
        sums are clipped into ``[0, 1]``.
        """
        members = self._members(event)
        if not members:
            return GUInterval(0.0, 0.0)
        if len(members) == len(self.atoms):
            return GUInterval(1.0, 1.0)
        raw = self._sum(members)
        if self.mode == "coherent":
            return GUInterval(_clip01(raw.left), _clip01(raw.right))
        return raw

    def measure_raw(self, event: Iterable[str]) -> GUInterval:
        """Plain endpoint sum over the event's atoms.

        No axiom for the empty or full event and no clipping.  This is the
        additive quantity the union identity is stated for.
        """
        return self._sum(self._members(event))

    def conditional(self, event: Iterable[str], given: Iterable[str]) -> GUInterval:
        """Measure of ``event`` conditional on ``given``.

        Defined as ``measure(event & given) / measure(given)`` with
        endpoint-wise division, so conditioning on the full space is the
        identity.  Both endpoints of ``measure(given)`` must be strictly
        positive.
        """
        a = self._members(event)
        b = self._members(given)
        mb = self.measure(b)
        if mb.left <= 0.0 or mb.right <= 0.0:
            raise ConditioningError(
                f"cannot condition on an event of measure {mb}; "
                "both endpoints must be positive"
            )
        return div(self.measure(a & b), mb)

    def independent(self, event_a: Iterable[str], event_b: Iterable[str]) -> bool:
        """Test whether the joint measure factorizes endpoint-wise, within
        :data:`~gutheory.intervals.DEFAULT_TOLERANCE`."""
        a = self._members(event_a)
        b = self._members(event_b)
        joint = self.measure(a & b)
        product = mul(self.measure(a), self.measure(b))
        return (
            abs(joint.left - product.left) <= DEFAULT_TOLERANCE
            and abs(joint.right - product.right) <= DEFAULT_TOLERANCE
        )

    def union_measure(self, event_a: Iterable[str], event_b: Iterable[str]) -> GUInterval:
        """Unclipped inclusion-exclusion sum for two events.

        Computes ``raw(A) + raw(B) - raw(A & B)`` endpoint-wise, which by
        additivity equals ``measure_raw(A | B)``.
        """
        a = self._members(event_a)
        b = self._members(event_b)
        return sub(add(self._sum(a), self._sum(b)), self._sum(a & b))

    # -- whole-space views ---------------------------------------------

    @property
    def is_degenerate(self) -> bool:
        """True when every atom interval has width within tolerance."""
        return all(gud(iv) <= DEFAULT_TOLERANCE for iv in self.assignment.values())

    def collapse_to_probability(self) -> dict[str, float]:
        """Collapse a degenerate space to a scalar probability mapping.

        Every atom width must be within tolerance; the left endpoints are
        returned.  Raises :class:`~gutheory.errors.DegeneracyError` naming
        the offending atoms otherwise.
        """
        wide = [a for a in self.atoms if gud(self.assignment[a]) > DEFAULT_TOLERANCE]
        if wide:
            raise DegeneracyError(
                f"space is not degenerate; atoms with nonzero width: {brief_repr(wide)}"
            )
        return {a: self.assignment[a].left for a in self.atoms}


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
