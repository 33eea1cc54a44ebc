"""Exception types shared across the package."""


class FreqbootError(Exception):
    """Base class for all package errors."""


class ConfigError(FreqbootError):
    """Invalid configuration, argument, or input file (CLI exit code 2)."""


class NumericalError(FreqbootError):
    """Numerical failure: degenerate bootstrap, failed embedding, a
    Matern lag table that does not settle (CLI exit code 3)."""
