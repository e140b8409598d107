"""Self-checks that stay on under ``python -O``.

A computed result that fails one of its own cross-checks raises
VerificationError instead of being returned; the CLI reports it as a
failed run (exit 1).  It subclasses AssertionError because it is one,
just one that the interpreter cannot strip.
"""

__all__ = ["VerificationError", "verify"]


class VerificationError(AssertionError):
    """Raised when a result fails one of its self-checks."""


def verify(cond, msg):
    """Raise VerificationError(msg) unless cond holds."""
    if not cond:
        raise VerificationError(msg)
