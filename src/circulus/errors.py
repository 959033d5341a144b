"""Exception types shared across the package."""

from __future__ import annotations


class CirculusError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByIntervalContainingZero(CirculusError):
    """Raised when an interval division's denominator contains zero."""


class NegativeRadicand(CirculusError):
    """Raised when a square root is requested of an interval with lo < 0."""


class DomainError(CirculusError):
    """Raised when a function argument lies outside its real domain."""


class PoleProximity(CirculusError):
    """Raised when tan is evaluated on an interval whose cosine contains zero."""


class UnsupportedSeed(CirculusError):
    """Raised for polygon seeds that have no exact construction."""


class IllConditioned(CirculusError):
    """Raised when a formula would lose all significance at the given input."""


class InsufficientSamples(CirculusError):
    """Raised when an order fit is requested with too few rungs."""


class IndeterminateError(CirculusError):
    """Raised when a required result cannot be certified at the working
    precision: an enclosure too wide to decide a comparison, or a series
    that does not converge within its term cap."""
