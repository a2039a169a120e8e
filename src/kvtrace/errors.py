"""Exception types shared across the library, and its one integer check."""

import operator


class ContractViolation(ValueError):
    """An argument or call violated a documented precondition."""


class TraceFormatError(ValueError):
    """A trace file could not be opened, read or parsed.

    Attributes:
        offset: Byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_integer(value, name: str) -> int:
    """``value`` as an int (``operator.index``); a float, even ``2.0``, raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ContractViolation(f"{name} must be an integer, got {value!r}") from None
