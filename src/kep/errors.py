"""Exception types shared across the package."""

import sys


class InputValidationError(ValueError):
    """An input matrix or document violates a standing assumption.

    ``assumption`` is a short, stable name for the violated assumption
    ("zero row", "negative entry", "shape mismatch", ...) so callers such
    as the CLI can report it without parsing the message.
    """

    def __init__(self, assumption: str, message: str | None = None):
        self.assumption = assumption
        super().__init__(message or assumption)


class InternalError(RuntimeError):
    """A structural invariant the library guarantees was violated.

    Seeing this is a defect in the library, never a property of the input.
    """


def decimal(v: int) -> str:
    """``str(v)`` for a reported integer; one beyond the interpreter-wide
    digit limit (``sys.get_int_max_str_digits()``) is an input error."""
    try:
        return str(v)
    except ValueError:
        raise InputValidationError(
            "output digit limit",
            f"an output integer has more than {sys.get_int_max_str_digits()} decimal "
            "digits, the limit of Python's int-to-text conversion",
        ) from None
