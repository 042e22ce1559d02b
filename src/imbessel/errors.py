"""Exception types shared across the library.

Two top-level categories mirror the CLI exit-code contract: DomainError for
invalid or out-of-range inputs (exit code 2) and ConvergenceError for iteration
or bracketing failures (exit code 3). A zero whose estimate lies outside the
paper's range xi > max(2, x) is refined like any other; where its phase
window holds no sign change, that is a BracketingError.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


class ConvergenceError(RuntimeError):
    """An iterative method failed to converge within its budget."""


class BracketingError(ConvergenceError):
    """No sign change was found inside the admissible bracket.

    Carries the last bracket attempted so callers can report or widen it.
    """

    def __init__(self, message: str, bracket: tuple[float, float]):
        self.bracket = bracket
        super().__init__(f"{message} (attempted bracket {bracket!r})")


class EnumerationError(ConvergenceError):
    """Zero enumeration aborted; completed records are attached.

    The failing n and the underlying error are available via ``n`` and
    ``__cause__``; ``partial`` holds the records finished before the abort.
    """

    def __init__(self, message: str, n: int, partial: tuple):
        self.n = n
        self.partial = partial
        super().__init__(message)
