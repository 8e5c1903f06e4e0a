"""Exception types shared across the package."""


class RisklabError(Exception):
    """Base class for all package-specific failures."""


class DomainError(RisklabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(RisklabError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


class BracketError(RisklabError, RuntimeError):
    """A root search could not bracket a sign change."""


class FitError(RisklabError, ValueError):
    """A regression or fit cannot be carried out on the given data."""


class ChainError(RisklabError, RuntimeError):
    """A Markov chain hit a non-recoverable state (e.g. non-finite risk)."""


class IdxFormatError(RisklabError, ValueError):
    """Base class for IDX binary container parse failures."""


class IdxMagicError(IdxFormatError):
    """The IDX magic number does not match the expected value."""


class IdxDimensionError(IdxFormatError):
    """Image and label files disagree on the number of records."""


class IdxTruncatedError(IdxFormatError):
    """The IDX payload is shorter or longer than the header promises."""


class ConfigError(RisklabError, ValueError):
    """A bad command line, run-configuration file or input table; the CLI exits 1 on it."""
