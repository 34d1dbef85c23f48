"""Exception types shared across the package."""


class LinksGouldError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LinksGouldError, ValueError):
    """Malformed polynomial text or braid word."""


class PoleAtRootError(LinksGouldError, ArithmeticError):
    """A denominator vanishes at the requested root of unity.

    Every expression produced by the spectral calculus is supposed to
    evaluate cleanly at q = exp(i*pi*r/m) with gcd(r, m) = 1; seeing this
    error for one of those values means an internal contract is broken.
    """


class BudgetError(LinksGouldError, RuntimeError):
    """An input exceeds a resource bound; the CLI exits with code 3."""


class CrossingBudgetError(BudgetError):
    """A skein resolution would exceed the configured crossing budget."""


class NotScalarError(LinksGouldError, ValueError):
    """A bracket expected to be a scalar multiple of the identity is not."""


class FixtureValidationError(LinksGouldError, ValueError):
    """A tensor assignment loaded from disk failed its axiom checks."""
