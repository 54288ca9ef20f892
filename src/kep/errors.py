"""Exception types shared across the package, with `decimal` (an integer
as text, or an input error past the digit limit) and `quote` (input text
for an error message, bounded in length)."""

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


# A quoted input longer than this is shown by its prefix and its length, so
# an error report stays small whatever the input holds.
_QUOTE_LIMIT = 40


def quote(text: str) -> str:
    """``repr(text)`` for an input named in an error message; a text over 40
    characters is quoted by its first 40 and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"
