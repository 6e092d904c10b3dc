"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericsError, OSError and MemoryError -> 4; any other exception ends in a
traceback.
"""


class ConfigError(ValueError):
    """Invalid configuration value or violated cross-field invariant."""


class DataError(ValueError):
    """Malformed or inconsistent input data (corpora, batches, masks)."""


class DimensionError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class NumericsError(RuntimeError):
    """Non-finite values or broken numerical preconditions at runtime."""
