"""Exceptions shared across the package."""


class UsageError(ValueError):
    """A caller violated a documented precondition (bad level, color, index...)."""


class DivisionByZeroQuantumInteger(ArithmeticError):
    """A quantum integer in a denominator vanishes at the requested embedding.

    This signals a degenerate color outside the admissible range; it never
    happens for ratios built from admissible data.
    """


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a result the mathematics guarantees did not hold.

    Raised instead of ``assert`` so the check survives ``python -O``; the CLI
    maps it to exit code 3.
    """
