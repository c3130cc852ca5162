"""Exception types raised by the library.

Everything derives from :class:`DecohereError` so callers can catch the whole
family with one clause; the CLI maps these to exit code 2.
"""


class DecohereError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(DecohereError):
    """An operation would exceed the configured dense-matrix qubit budget."""


class InvalidSizeError(DecohereError):
    """A qubit count or array length is outside the supported range."""


class InvalidPartitionError(DecohereError):
    """A qubit subset is empty, full, or refers to nonexistent qubits."""


class SymmetryViolationError(DecohereError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NormalizationError(DecohereError):
    """A state vector or density matrix fails its normalization invariant."""


class FormulaUnavailableError(DecohereError):
    """No closed-form negativity exists for the requested family/size."""


class ConfigError(DecohereError):
    """An experiment configuration file is malformed or out of range."""
