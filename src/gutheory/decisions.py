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

Every stage reads one endpoint law.  For proper GEUs ``i = [a_i, b_i]``,
``j = [a_j, b_j]`` and ``tol >= 0``, ``compare(j, i)`` is
``StronglyGreater`` exactly when ``fl(a_j - b_i) > tol``, and
``StronglyGreater`` or ``WeaklyGreater`` exactly when ``fl(b_j - b_i) >
tol`` and ``fl(a_i - a_j) <= tol``.  Rounded subtraction is monotone in
each argument, so a test holds against every rival exactly when it holds
against the rival with the extreme endpoint.  Only the comparison
column's last best can win stage 1 or 2 (a scheme dominating every rival
displaces the best before it on its turn and keeps the place), so those
stages test it against the largest left and right endpoints of the
others.  At stage 3 the j with ``fl(a_i - a_j) <= tol`` form a suffix of
the schemes sorted by left endpoint, and i survives unless that suffix's
largest right endpoint ``r`` gives ``fl(r - b_i) > tol``.  So the column's
m - 1 calls are all the ``compare`` calls ``decide`` makes, and stage 3
takes O(m log m).

The full relation matrix reads the same endpoint tests row by row.  Over
the schemes sorted by left endpoint, and again by right endpoint, each
test a row makes holds on a suffix, so bisection splits each sorted side
into four regions, and a 16-entry table maps each pair of regions to the
relation ``_classify`` gives there.  A row costs six bisections and a few
whole-row operations in C, with no call per cell.  The JSON report reads
the rows as relation texts, and ``DecisionReport.relations`` builds them
as ``Relation`` members on first read; the table never builds them.

Containment verdicts never eliminate anyone: an interval nested inside
another ranks neither above nor below it, which is exactly the situation
the attitude stage exists for.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from enum import Enum, unique
from itertools import accumulate
from operator import itemgetter

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


def _ranks(values: list[float]) -> list[int]:
    """The place of each value in ``sorted(values)``, ties in input order."""
    ranks = [0] * len(values)
    for place, k in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        ranks[k] = place
    return ranks


def _relation_rows(geus: Sequence[GUInterval], tol: float, table: tuple):
    """Yield the rows of the relation matrix in input order, each cell read
    off ``table``, a 16-entry table laid out as :data:`_RELATIONS` is.

    A row ``[a, b]`` meets a column ``[x, y]`` through six endpoint tests,
    three on the column's left endpoint and three on its right::

        fl(a - x) <= tol    fl(x - a) > tol    fl(x - b) > tol
        fl(a - y) <= tol    fl(b - y) <= tol   fl(y - b) > tol

    ``_classify`` reads nothing else: ``abs(a - x) <= tol`` is the first
    test and not the second, since ``fl(x - a) == -fl(a - x)``.  Rounded
    subtraction is monotone in each argument, so over the lefts sorted
    ascending each test on them holds on a suffix, and so does each test on
    the sorted rights.  The suffixes on each side nest: with ``tol >= 0``,
    ``fl(x - a) > tol`` makes ``fl(a - x)`` negative, and ``a <= b`` gives
    ``fl(x - b) <= fl(x - a)``; likewise on the right.  So each side splits
    into four regions, 0 to 3, by how many of its tests hold, and bisection
    finds their bounds.  The regions are written as run-length bytes in
    sorted order, the left region times 4 and the right region as it is,
    gathered into input order and added as big-endian integers, which
    cannot carry, into one code ``4 * left + right`` per cell.
    """
    for g in geus:
        compare(g, g, tol)
    m = len(geus)
    if m < 2:
        # itemgetter of one index returns a scalar, and of none raises.  A
        # lone GEU is Equal to itself: left region 1, right region 2.
        yield from ((table[6],) for _ in geus)
        return
    lefts = [g.left for g in geus]
    rights = [g.right for g in geus]
    # Gathering a sorted row at the ranks puts it in input order.
    gather_left, gather_right = itemgetter(*_ranks(lefts)), itemgetter(*_ranks(rights))
    xs, ys = sorted(lefts), sorted(rights)
    for a, b in zip(lefts, rights):
        i1 = bisect_left(xs, True, key=lambda x: a - x <= tol)
        i2 = bisect_left(xs, True, i1, key=lambda x: x - a > tol)
        i3 = bisect_left(xs, True, i2, key=lambda x: x - b > tol)
        j1 = bisect_left(ys, True, key=lambda y: a - y <= tol)
        j2 = bisect_left(ys, True, j1, key=lambda y: b - y <= tol)
        j3 = bisect_left(ys, True, j2, key=lambda y: y - b > tol)
        left = b"\x00" * i1 + b"\x04" * (i2 - i1) + b"\x08" * (i3 - i2) + b"\x0c" * (m - i3)
        right = b"\x00" * j1 + b"\x01" * (j2 - j1) + b"\x02" * (j3 - j2) + b"\x03" * (m - j3)
        codes = (
            int.from_bytes(gather_left(left), "big") + int.from_bytes(gather_right(right), "big")
        ).to_bytes(m, "big")
        yield itemgetter(*codes)(table)


#: The relation for each code ``4 * left region + right region``, read off
#: the classifier at one point of each region of the row ``[1, 3]``.
_RELATIONS = tuple(
    _classify(1.0, 3.0, x, y, 0.0) for x in (0.0, 1.0, 2.0, 4.0) for y in (0.0, 2.0, 3.0, 4.0)
)
_RELATION_VALUES = tuple(rel.value for rel in _RELATIONS)


def relation_matrix(
    geus: Sequence[GUInterval], tol: float = DEFAULT_TOLERANCE
) -> tuple[tuple[Relation, ...], ...]:
    """Pairwise comparison table: ``relation_matrix(geus, tol)[i][j] is
    compare(geus[i], geus[j], tol)``, and the diagonal is ``Equal``.

    Each GEU and ``tol`` are checked once, by comparing the GEU with itself.
    Each row is then read off the endpoint ranks of the others, with no
    comparison per cell: see :func:`_relation_rows`.
    """
    return tuple(_relation_rows(geus, tol, _RELATIONS))


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
    a, b = geus[best].left, geus[best].right
    others = geus[:best] + geus[best + 1:]
    top_left = max((g.left for g in others), default=-math.inf)
    top_right = max((g.right for g in others), default=-math.inf)
    selected = best
    if a - top_right > tol:
        rationale = SelectionRationale.STRONGLY_ADVANTAGE
    elif b - top_right > tol and top_left - a <= tol:
        rationale = SelectionRationale.WEAKLY_ADVANTAGE
    else:
        # tops[k] is the largest right endpoint of pairs[k:].  Each suffix
        # holds i itself, so the scheme with the largest right endpoint
        # survives and survivors is never empty.
        pairs = sorted((g.left, g.right) for g in geus)
        tops = [*accumulate((p[1] for p in reversed(pairs)), max)][::-1]
        survivors = [
            i for i, g in enumerate(geus)
            if tops[bisect_left(pairs, True, key=lambda p: g.left - p[0] <= tol)] - g.right <= tol
        ]
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


def _fmt_interval(iv: GUInterval) -> str:
    return f"[{iv.left:g},{iv.right:g}]"


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
            + [f"{p:g}" for p in scheme.payoffs]
            + [_fmt_interval(report.geus[i]), comparison]
        )
    # Each cell pads to its column's printed width, counted in the columns
    # it prints to rather than in code points.
    widths = [max(map(_width, column)) for column in zip(*rows)]
    lines = [
        "  ".join(c.ljust(w + len(c) - _width(c)) for c, w in zip(row, widths)).rstrip()
        for row in rows
    ]
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
        "relations": list(_relation_rows(report.geus, report.tolerance, _RELATION_VALUES)),
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
