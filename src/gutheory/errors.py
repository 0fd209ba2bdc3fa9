"""Exception types shared across the package.

Everything raised on purpose derives from :class:`GutError`, which itself
derives from ``ValueError`` so that callers who do not care about the finer
distinctions can catch one thing.
"""

from __future__ import annotations

from collections.abc import Iterable

#: How many characters of an input value or name an error message shows.
SHOWN = 80

#: Each C0 character, DEL and each C1 character as ``repr`` escapes it, for
#: ``str.translate``: a name printed through it stays on its line and sends
#: the terminal no control.
CONTROLS = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0))}


def brief(text: str) -> str:
    """``text`` cut to :data:`SHOWN` characters, so an error line stays short."""
    return text if len(text) <= SHOWN else f"{text[:SHOWN - 3]}..."


def brief_repr(value: object) -> str:
    """``value``'s ``repr`` cut by :func:`brief`.  An ``int`` beyond the
    interpreter's digit limit, or a container holding one or nested past
    the recursion limit, has none, so it shows as ``<unprintable TYPE>``."""
    try:
        return brief(repr(value))
    except (ValueError, RecursionError):
        return brief(f"<unprintable {type(value).__name__}>")


class GutError(ValueError):
    """Base class for every domain error raised by this package."""


class IntervalError(GutError):
    """Invalid interval construction, or an interval operation applied
    outside its domain (improper input, zero denominator endpoint)."""


class ValidationError(GutError):
    """A structured value (space, variable, envelope, decision problem)
    violates its construction rules.

    ``violations`` carries one message per broken rule; a lone ``str`` is
    one.  The exception text joins the first three and counts the rest, so
    an error line stays short however many rules a large input breaks.
    """

    def __init__(self, violations: Iterable[str] | str):
        self.violations = (violations,) if isinstance(violations, str) else tuple(violations)
        rest = len(self.violations) - 3
        text = "; ".join(self.violations[:3]) or "invalid value"
        super().__init__(f"{text}; and {rest} more" if rest > 0 else text)


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
