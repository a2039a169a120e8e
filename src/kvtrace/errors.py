"""Exception types shared across the library."""


class ContractViolation(ValueError):
    """An argument or call violated a documented precondition."""


class TraceFormatError(ValueError):
    """A trace file could not be parsed.

    Attributes:
        offset: Byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
