"""Exception types shared across the package."""

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands act on chains of different length or dimension."""


class TableauConsistencyError(RuntimeError):
    """A stabilizer tableau violates its invariants (commutation, rank, signs)."""


class NonCliffordGateError(ValueError):
    """A gate outside the supported Clifford set was given to the tableau engine."""


class MemoryCapError(RuntimeError):
    """A requested reduced density matrix exceeds the configured size cap."""


class NumericalError(RuntimeError):
    """Numerical data is corrupted beyond tolerance (negative spectra, residuals)."""


class ConfigurationError(ValueError):
    """Invalid or incomplete run configuration."""


# failures of a computation on a valid configuration: sweep error rows, CLI exit 3.
# LinAlgError is a ValueError, so catch these before configuration errors.
NUMERICAL_FAILURES = (
    np.linalg.LinAlgError, NumericalError, TableauConsistencyError, MemoryCapError, MemoryError
)
