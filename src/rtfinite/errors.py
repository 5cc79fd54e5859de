"""The package's two failure classes, one per CLI exit code: UsageError
exits 2 and InvariantViolation exits 3."""


class UsageError(ValueError):
    """A caller violated a documented precondition (bad level, color, index...)."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a result the mathematics guarantees did not hold.

    Raised instead of ``assert`` so the check survives ``python -O``; the CLI
    maps it to exit code 3.
    """
