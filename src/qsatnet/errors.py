"""Exception taxonomy shared across the package."""


class QsatError(Exception):
    """Base class for all package errors."""


class ConfigurationError(QsatError, ValueError):
    """A scenario or component parameter is out of range or inconsistent."""


class IngestionError(QsatError, ValueError):
    """An input file failed schema or range validation."""


class UnknownIdError(QsatError, KeyError):
    """A satellite, station, or weather key is not present."""

    # KeyError would quote the message as the repr of a key
    __str__ = Exception.__str__


class StructuralError(QsatError, ValueError):
    """An optimization problem is dimensionally malformed."""


class ParameterError(QsatError, ValueError):
    """A solver parameter (limit, tolerance) is invalid."""


class SimulationError(QsatError, RuntimeError):
    """A run failed mid-flight; carries the slot index where it happened."""

    def __init__(self, slot: int, message: str):
        super().__init__(f"slot {slot}: {message}")
        self.slot = slot
