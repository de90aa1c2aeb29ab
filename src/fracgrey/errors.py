"""Exception types shared across the package."""


class UsageError(Exception):
    """Bad command-line arguments or run-configuration values."""


class DataError(ValueError):
    """Malformed or invalid input data (files, observation series)."""


class SingularDesignError(RuntimeError):
    """Least-squares design matrix is rank deficient."""
