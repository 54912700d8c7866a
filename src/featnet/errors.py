"""Exception hierarchy shared across the toolkit."""


class FeatnetError(Exception):
    """Base class for all featnet errors."""


class ParseError(FeatnetError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(FeatnetError):
    """A cell or label value is outside its allowed domain."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{', '.join(where)}: {message}"
        super().__init__(message)


class DegenerateDistribution(FeatnetError):
    """A degree distribution has too few distinct degrees to fit."""
