"""Exception hierarchy shared by all softsets modules."""


class SoftSetError(Exception):
    """Base class for every error raised by this package."""


class DuplicateIdentifier(SoftSetError):
    pass


class BadIdentifier(SoftSetError):
    pass


class EmptyUniverse(SoftSetError):
    pass


class UnknownParameter(SoftSetError):
    pass


class UnknownObject(SoftSetError):
    pass


class DuplicateParameter(SoftSetError):
    pass


class EmptyImage(SoftSetError):
    pass


class ContextMismatch(SoftSetError):
    pass


class EnumerationTooLarge(SoftSetError):
    pass


# Largest number of argument tuples exhaustive law checking enumerates
# before raising EnumerationTooLarge.  Kept here, with its exception,
# so that ``softsets.cli`` can show it without importing ``laws``.
DEFAULT_CAP = 1_000_000


class UnboundName(SoftSetError):
    def __init__(self, name: str):
        super().__init__(f"unbound name {name}")
        self.name = name


class PositionedError(SoftSetError):
    """Error carrying a 1-based (line, column) source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class LexError(PositionedError):
    pass


class ParseError(PositionedError):
    pass


class FormatError(SoftSetError):
    """Workspace file error, carrying the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line
