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


class SchemaError(FeatnetError):
    """Feature names are duplicated, empty, or otherwise unusable."""


class EmptyPartition(FeatnetError):
    """A row selection produced zero rows."""


class TooFewRows(FeatnetError):
    """Not enough rows for the requested statistic."""


class UncoveredNode(FeatnetError):
    """A partition does not cover every graph node."""


class DegenerateDistribution(FeatnetError):
    """A degree distribution has too few distinct degrees to fit."""


class DegenerateLabels(FeatnetError):
    """Training labels contain a single class."""


class RankDeficient(FeatnetError):
    """The covariance matrix has fewer nonzero eigenvalues than requested."""
