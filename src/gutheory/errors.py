"""Exception types shared across the package.

Everything raised on purpose derives from :class:`GutError`, which itself
derives from ``ValueError`` so that callers who do not care about the finer
distinctions can catch one thing.
"""

from __future__ import annotations

from typing import Iterable

#: How many characters of an input value or name an error message shows.
SHOWN = 80


def brief(text: str) -> str:
    """``text`` cut to :data:`SHOWN` characters, so an error line stays short."""
    return text if len(text) <= SHOWN else f"{text[:SHOWN - 3]}..."


class GutError(ValueError):
    """Base class for every domain error raised by this package."""


class IntervalError(GutError):
    """Invalid interval construction, or an interval operation applied
    outside its domain (improper input, zero denominator endpoint)."""


class ValidationError(GutError):
    """A structured value (space, variable, envelope, decision problem)
    violates its construction rules.

    ``violations`` carries one message per broken rule; the exception text
    joins them so nothing is hidden from a plain ``str()``.
    """

    def __init__(self, violations: Iterable[str]):
        self.violations: tuple[str, ...] = tuple(violations)
        super().__init__("; ".join(self.violations) or "invalid value")


class EventError(GutError):
    """An event refers to atoms that do not belong to its space."""


class ConditioningError(GutError):
    """Conditioning on an event whose measure has a zero endpoint."""


class DegeneracyError(GutError):
    """A degenerate-only operation was applied to a non-degenerate object."""


class ConfigurationError(GutError):
    """Unusable configuration: bad distribution parameters, a negative
    seed, or an envelope of the wrong kind for the requested operation."""


class EnvelopeError(GutError):
    """An envelope calculus request falls outside the envelope's domain,
    or uses a non-positive increment where a positive one is required."""


class NestingError(GutError):
    """An interval sequence breaks its containment chain.

    ``index`` is the position of the first interval that is not contained
    in its predecessor.
    """

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class ConvergenceError(GutError):
    """An interval sequence shows no width shrinkage, so no limit value
    can be read off."""


class AttitudeRequiredError(GutError):
    """The decision procedure reached the risk stage without being told
    whether the decision maker is risk averse or risk seeking."""
