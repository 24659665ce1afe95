"""Exception types shared across the package."""

from __future__ import annotations


class UdetError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleConstraints(UdetError):
    """No admissible weight vector satisfies the declared constraints."""


class ContradictoryPremises(UdetError):
    """Explicit preferences conflict with score-unanimous orderings, or
    preference filtering leaves no compatible answer."""


class UndeclaredReference(UdetError):
    """A response names a candidate or criterion the instance does not declare."""


class ResponseSpaceTooLarge(UdetError):
    """Too many declared criteria to enumerate conditional responses."""


class CorpusCorrupt(UdetError):
    """A bundled corpus entry failed to parse or validate (build defect)."""
