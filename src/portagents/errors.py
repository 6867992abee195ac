"""Exception types shared across the package.

ConfigError maps to CLI exit code 2, DataError to exit code 3.
"""


class PortAgentsError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PortAgentsError):
    """Invalid or inconsistent configuration."""


class DataError(PortAgentsError):
    """Problem with input market data."""


# -- data ingestion ---------------------------------------------------------

class MissingColumn(DataError):
    pass


class NonPositivePrice(DataError):
    pass


class UnparseableDate(DataError):
    pass


class EmptyIntersection(DataError):
    pass


class SeriesTooShort(DataError):
    pass


class InsufficientHistory(DataError):
    pass


class InvalidRegime(ConfigError):
    pass


class DataSplitTooSmall(ConfigError):
    pass


# -- numerics / metrics -----------------------------------------------------

class DimensionMismatch(PortAgentsError, ValueError):
    pass


class ShapeMismatch(DimensionMismatch):
    pass


class NonFiniteInput(PortAgentsError, ValueError):
    pass


class ZeroVolatility(PortAgentsError, ValueError):
    pass


class DegenerateSamples(PortAgentsError, ValueError):
    pass


class NonPositiveGrowth(PortAgentsError, ValueError):
    pass


# -- neural engine ----------------------------------------------------------

class StaleTape(PortAgentsError):
    pass


# -- agents / environment ---------------------------------------------------

class InsufficientBuffer(PortAgentsError):
    pass


class BudgetTooSmall(ConfigError):
    pass


class EpisodeFinished(PortAgentsError):
    pass


class InvalidAction(PortAgentsError, ValueError):
    pass


class EmptyBatch(PortAgentsError, ValueError):
    pass


# -- io ---------------------------------------------------------------------

class IoFailure(DataError):
    pass
