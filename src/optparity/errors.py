"""Exception types shared across the package."""


class OptparityError(Exception):
    """Base class for all package errors."""


class DuplicateGroupName(OptparityError):
    pass


class ShapeMismatch(OptparityError):
    pass


class UnknownGroupName(OptparityError):
    pass


class LengthMismatch(OptparityError):
    pass


class NonFiniteInput(OptparityError):
    pass


class DivisionHazard(OptparityError):
    pass


class UncoveredTag(OptparityError):
    pass


class OutOfRangeStep(OptparityError):
    pass


class IoFailure(OptparityError):
    pass


class InvalidConfig(OptparityError, ValueError):
    """A value out of its range; also a ValueError, for callers that catch one."""


class IndivisibleBatch(OptparityError):
    pass


class StaleCache(OptparityError):
    pass


class InvalidUnit(OptparityError):
    pass


class TooManyDims(OptparityError):
    pass


class NoCompletedTrials(OptparityError):
    pass


class ParseError(OptparityError):
    pass


class ValidationError(OptparityError):
    """Config validation failure; message carries the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ConfigPathUnknown(ValidationError):
    """A dotted path that addresses no field of the config document."""

    def __init__(self, path: str):
        super().__init__(path, "unknown config path")


class CorruptRecord(OptparityError):
    """Unreadable line in a trial log; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str = "corrupt record"):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyInput(OptparityError):
    pass
