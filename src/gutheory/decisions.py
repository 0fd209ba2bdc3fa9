"""Expected-utility decision analysis under interval-valued beliefs.

A decision problem pairs nature statuses, each carrying an interval
measure, with schemes whose payoff rows are indexed by those statuses.
Each scheme earns a generalized expected utility (GEU): the payoff-
weighted endpoint sums of the status measures.  Selection then runs in
three stages:

1. a scheme strongly greater than every rival wins outright;
2. failing that, a scheme at least weakly greater than every rival wins;
3. failing that, schemes not dominated (strongly or weakly) by anyone
   survive, and the risk attitude picks among them: an averse decision
   maker takes the smallest uncertainty degree, a seeking one the
   largest.  Ties go to the earliest scheme in input order.

Only the last best scheme of the comparison column can win stage 1 or 2:
a scheme dominating every rival displaces the best before it on its turn
and keeps the place, since every later scheme is smaller than it.

``decide`` compares only the pairs the selection reads: the column, the
last best against the schemes before it (the column already holds its
relation to every later one), and at stage 3 each scheme against its
rivals up to the first that dominates it, each unordered pair at most
once.  The full relation matrix is built only when
``DecisionReport.relations`` is read, as the JSON report does; the table
never reads it.

Containment verdicts never eliminate anyone: an interval nested inside
another ranks neither above nor below it, which is exactly the situation
the attitude stage exists for.
"""

from __future__ import annotations

import math
from enum import Enum, unique
from typing import Mapping, Sequence

from .errors import AttitudeRequiredError, ValidationError, brief
from .intervals import (
    DEFAULT_TOLERANCE,
    GUInterval,
    IntervalLike,
    Relation,
    _classify,
    _Frozen,
    as_interval,
    compare,
    endpoint_sum,
    gud,
)

ATTITUDES = ("averse", "seeking")

_DOMINANT = (Relation.STRONGLY_GREATER, Relation.WEAKLY_GREATER)


class NatureStatus(_Frozen):
    """A possible state of the world with its interval measure."""

    __slots__ = __match_args__ = ("name", "gum")

    name: str
    gum: GUInterval

    def __init__(self, name: str, gum: GUInterval) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gum", gum)


class Scheme(_Frozen):
    """A course of action with one payoff per nature status."""

    __slots__ = __match_args__ = ("name", "payoffs")

    name: str
    payoffs: tuple[float, ...]

    def __init__(self, name: str, payoffs: tuple[float, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "payoffs", payoffs)


@unique
class SelectionRationale(Enum):
    """Which stage of the procedure produced the selected scheme."""

    STRONGLY_ADVANTAGE = "StronglyAdvantage"
    WEAKLY_ADVANTAGE = "WeaklyAdvantage"
    RISK_AVERSE_MIN_GUD = "RiskAverseMinGud"
    RISK_SEEKING_MAX_GUD = "RiskSeekingMaxGud"


class ComparisonEntry(_Frozen):
    """One row of the running comparison column: how ``scheme`` relates to
    the best scheme seen before it."""

    __slots__ = __match_args__ = ("scheme", "versus", "relation")

    scheme: str
    versus: str
    relation: Relation

    def __init__(self, scheme: str, versus: str, relation: Relation) -> None:
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "versus", versus)
        object.__setattr__(self, "relation", relation)


class DecisionProblem(_Frozen):
    __slots__ = __match_args__ = ("natures", "schemes", "attitude", "tolerance")

    natures: tuple[NatureStatus, ...]
    schemes: tuple[Scheme, ...]
    attitude: str | None
    tolerance: float

    def __init__(
        self,
        natures: tuple[NatureStatus, ...],
        schemes: tuple[Scheme, ...],
        attitude: str | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        object.__setattr__(self, "natures", natures)
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "attitude", attitude)
        object.__setattr__(self, "tolerance", tolerance)
        problems = []
        if not self.natures:
            problems.append("at least one nature status is required")
        if not self.schemes:
            problems.append("at least one scheme is required")
        names = [n.name for n in self.natures]
        if len(set(names)) != len(names):
            problems.append("nature status names must be unique")
        names = [s.name for s in self.schemes]
        if len(set(names)) != len(names):
            problems.append("scheme names must be unique")
        for n in self.natures:
            if not n.gum.is_measure_valid:
                problems.append(
                    f"status {brief(repr(n.name))}: measure {n.gum} must lie inside [0, 1]"
                )
        for s in self.schemes:
            if len(s.payoffs) != len(self.natures):
                problems.append(
                    f"scheme {brief(repr(s.name))} has {len(s.payoffs)} payoffs for "
                    f"{len(self.natures)} statuses"
                )
            for p in s.payoffs:
                if not math.isfinite(p) or p < 0.0:
                    problems.append(
                        f"scheme {brief(repr(s.name))}: payoffs must be finite and "
                        f"nonnegative, got {p}"
                    )
                    break
        if self.attitude is not None and self.attitude not in ATTITUDES:
            problems.append(
                f"unknown attitude {brief(repr(self.attitude))}; expected one of {ATTITUDES}"
            )
        if not 0.0 <= self.tolerance < math.inf:
            problems.append(
                f"tolerance must be finite and nonnegative, got {self.tolerance}"
            )
        if problems:
            raise ValidationError(problems)

    @classmethod
    def from_dict(
        cls,
        data: Mapping,
        attitude: str | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "DecisionProblem":
        """Build from the JSON document shape::

            {"natures": [{"name": "Status 1", "gum": [0.1, 0.2]}, ...],
             "schemes": [{"name": "S1", "payoffs": [100, 80, 90]}, ...],
             "attitude": "averse"}

        An explicit ``attitude`` argument overrides the document's.
        """
        natures = tuple(
            NatureStatus(str(n["name"]), as_interval(n["gum"]))
            for n in data.get("natures", ())
        )
        schemes = tuple(
            Scheme(str(s["name"]), tuple(float(p) for p in s["payoffs"]))
            for s in data.get("schemes", ())
        )
        if attitude is None:
            attitude = data.get("attitude")
        return cls(natures, schemes, attitude=attitude, tolerance=tolerance)


def geu(payoffs: Sequence[float], measures: Sequence[IntervalLike]) -> GUInterval:
    """Generalized expected utility of one payoff row.

    Endpoint sums ``[sum p_j * left_j, sum p_j * right_j]`` over the
    status measures, via :func:`~gutheory.intervals.endpoint_sum`.
    """
    measures = [as_interval(m) for m in measures]
    if len(payoffs) != len(measures):
        raise ValidationError(
            [f"{len(payoffs)} payoffs for {len(measures)} status measures"]
        )
    bad = [p for p in payoffs if not math.isfinite(p) or p < 0.0]
    if bad:
        raise ValidationError([f"payoffs must be finite and nonnegative, got {bad}"])
    return endpoint_sum(measures, payoffs)


class DecisionReport(_Frozen):
    """Everything the selection procedure concluded, in scheme input order.

    The comparison column mimics a hand-worked table: each scheme after the
    first is compared against the best scheme so far, and ``None`` marks
    the first row.  ``note`` is set when a tie had to be broken.
    ``relations[i][j]`` classifies GEU(i) against GEU(j) under
    ``tolerance``; it is built by :func:`relation_matrix` on first read.
    """

    __match_args__ = (
        "scheme_names", "geus", "tolerance", "comparison_column", "selected",
        "rationale", "attitude", "note",
    )
    __slots__ = (*__match_args__, "_relations")

    scheme_names: tuple[str, ...]
    geus: tuple[GUInterval, ...]
    tolerance: float
    comparison_column: tuple[ComparisonEntry | None, ...]
    selected: str
    rationale: SelectionRationale
    attitude: str | None
    note: str | None

    def __init__(
        self,
        scheme_names: tuple[str, ...],
        geus: tuple[GUInterval, ...],
        tolerance: float,
        comparison_column: tuple[ComparisonEntry | None, ...],
        selected: str,
        rationale: SelectionRationale,
        attitude: str | None,
        note: str | None = None,
    ) -> None:
        values = (scheme_names, geus, tolerance, comparison_column, selected,
                  rationale, attitude, note, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def selected_index(self) -> int:
        return self.scheme_names.index(self.selected)

    @property
    def relations(self) -> tuple[tuple[Relation, ...], ...]:
        if self._relations is None:
            object.__setattr__(self, "_relations", relation_matrix(self.geus, self.tolerance))
        return self._relations


def relation_matrix(
    geus: Sequence[GUInterval], tol: float = DEFAULT_TOLERANCE
) -> tuple[tuple[Relation, ...], ...]:
    """Pairwise comparison table; the diagonal is ``Equal``.

    Each GEU and ``tol`` are checked once, by comparing the GEU with itself,
    and each pair is classified once: a cell below the diagonal mirrors the
    cell above it, since ``compare(b, a) is compare(a, b).mirrored``.
    """
    for g in geus:
        compare(g, g, tol)
    rows: list[tuple[Relation, ...]] = []
    for i, gi in enumerate(geus):
        a1, b1 = gi.left, gi.right
        row = [r[i].mirrored for r in rows]
        row += [_classify(a1, b1, g.left, g.right, tol) for g in geus[i:]]
        rows.append(tuple(row))
    return tuple(rows)


def decide(problem: DecisionProblem) -> DecisionReport:
    """Run the full selection procedure on ``problem``.

    Raises :class:`~gutheory.errors.AttitudeRequiredError` when no scheme
    holds a strong or weak advantage and the problem carries no attitude.
    """
    tol = problem.tolerance
    names = tuple(s.name for s in problem.schemes)
    measures = [n.gum for n in problem.natures]
    geus = tuple(geu(s.payoffs, measures) for s in problem.schemes)
    m = len(names)
    note = None

    column: list[ComparisonEntry | None] = [None]
    best = 0
    for i in range(1, m):
        rel = compare(geus[i], geus[best], tol)
        column.append(ComparisonEntry(names[i], names[best], rel))
        if rel in _DOMINANT:
            best = i
    # Each scheme after the last best met it in the column.
    rivals = [compare(geus[best], geus[j], tol) for j in range(best)]
    rivals += [entry.relation.mirrored for entry in column[best + 1:]]
    selected = best
    if all(rel is Relation.STRONGLY_GREATER for rel in rivals):
        rationale = SelectionRationale.STRONGLY_ADVANTAGE
    elif all(rel in _DOMINANT for rel in rivals):
        rationale = SelectionRationale.WEAKLY_ADVANTAGE
    else:
        # Each scan stops at the first dominator and records in reach[i]
        # the rivals it covered; it marks each later rival it dominates, so
        # a later scan skips a dominated scheme and any rival whose scan
        # covered the pair.  Each unordered pair is compared at most once.
        # Domination strictly raises the right endpoint, so the scheme with
        # the largest one is never dominated and survivors is never empty.
        dominated = [False] * m
        reach = [0] * m
        for i in range(m):
            if dominated[i]:
                continue
            reach[i] = m
            for j in range(m):
                if j == i or j < i and reach[j] > i:
                    continue
                rel = compare(geus[j], geus[i], tol)
                if rel in _DOMINANT:
                    dominated[i] = True
                    reach[i] = j + 1
                    break
                if j > i and rel.mirrored in _DOMINANT:
                    dominated[j] = True
        survivors = [i for i in range(m) if not dominated[i]]
        if problem.attitude is None:
            raise AttitudeRequiredError(
                "no scheme dominates; a risk attitude (averse or seeking) is "
                "needed to choose among " +
                brief(", ".join(repr(names[i]) for i in survivors))
            )
        widths = [gud(geus[i]) for i in survivors]
        target = min(widths) if problem.attitude == "averse" else max(widths)
        tied = [i for i, w in zip(survivors, widths) if abs(w - target) <= tol]
        selected = tied[0]
        rationale = (
            SelectionRationale.RISK_AVERSE_MIN_GUD
            if problem.attitude == "averse"
            else SelectionRationale.RISK_SEEKING_MAX_GUD
        )
        if len(tied) > 1:
            note = (
                "uncertainty degree tie between "
                + ", ".join(names[i] for i in tied)
                + "; earliest scheme kept"
            )

    return DecisionReport(
        scheme_names=names,
        geus=geus,
        tolerance=tol,
        comparison_column=tuple(column),
        selected=names[selected],
        rationale=rationale,
        attitude=problem.attitude,
        note=note,
    )


# ---------------------------------------------------------------------------
# Presentation

_SYMBOLS = {
    Relation.EQUAL: "=",
    Relation.STRONGLY_SMALLER: "<",
    Relation.STRONGLY_GREATER: ">",
    Relation.WEAKLY_SMALLER: "≤",
    Relation.WEAKLY_GREATER: "≥",
    Relation.PARTLY_SMALLER: "⪯",
    Relation.PARTLY_GREATER: "⪰",
}


def _fmt(x: float) -> str:
    return f"{x:g}"


def _fmt_interval(iv: GUInterval) -> str:
    return f"[{_fmt(iv.left)},{_fmt(iv.right)}]"


def _width(cell: str) -> int:
    """How many columns ``cell`` takes once written as UTF-8 with
    ``backslashreplace``: a code point UTF-8 cannot encode prints as its
    backslash escape, and an East Asian wide or fullwidth one takes two."""
    if cell.isascii():
        return len(cell)
    from unicodedata import east_asian_width

    return sum(
        len(c.encode("utf-8", "backslashreplace")) if "\ud800" <= c <= "\udfff"
        else 2 if east_asian_width(c) in ("W", "F") else 1
        for c in cell
    )


def render_decision_table(problem: DecisionProblem, report: DecisionReport) -> str:
    """Plain-text table: one column per status, then GEU and comparison."""
    header = ["/"] + [n.name for n in problem.natures] + ["GEU", "Comparison"]
    rows = [header]
    rows.append(
        ["GUM"] + [_fmt_interval(n.gum) for n in problem.natures] + ["/", "/"]
    )
    index_of = {name: k for k, name in enumerate(report.scheme_names)}
    for i, scheme in enumerate(problem.schemes):
        entry = report.comparison_column[i]
        if entry is None:
            comparison = "/"
        else:
            comparison = (
                f"GEU{index_of[entry.scheme] + 1} "
                f"{_SYMBOLS[entry.relation]} GEU{index_of[entry.versus] + 1}"
            )
        rows.append(
            [scheme.name]
            + [_fmt(p) for p in scheme.payoffs]
            + [_fmt_interval(report.geus[i]), comparison]
        )
    # An ASCII cell prints one column per character, so an ASCII row pads
    # each cell to its column's width as it stands.
    ascii_rows = ["".join(row).isascii() for row in rows]
    measure = len if all(ascii_rows) else _width
    widths = [max(map(measure, column)) for column in zip(*rows)]
    lines = []
    for row, is_ascii in zip(rows, ascii_rows):
        pads = widths if is_ascii else [w + len(c) - _width(c) for c, w in zip(row, widths)]
        lines.append("  ".join(map(str.ljust, row, pads)).rstrip())
    lines.append("")
    lines.append(f"selected: {report.selected} ({report.rationale.value})")
    if report.attitude:
        lines.append(f"attitude: {report.attitude}")
    if report.note:
        lines.append(f"note: {report.note}")
    return "\n".join(lines)


def report_to_dict(report: DecisionReport) -> dict:
    """JSON-ready view of a report, stable key order."""
    return {
        "schemes": list(report.scheme_names),
        "geus": [[iv.left, iv.right] for iv in report.geus],
        # ``_value_`` is the member's own attribute: the ``value`` property,
        # or a dict keyed by members (hashed by ``Enum.__hash__``), costs a
        # Python call for each of the m * m cells.
        "relations": [[rel._value_ for rel in row] for row in report.relations],
        "comparisons": [
            None
            if entry is None
            else {
                "scheme": entry.scheme,
                "versus": entry.versus,
                "relation": entry.relation.value,
            }
            for entry in report.comparison_column
        ],
        "selected": report.selected,
        "rationale": report.rationale.value,
        "attitude": report.attitude,
        "note": report.note,
    }
