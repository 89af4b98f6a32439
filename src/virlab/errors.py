"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericAbort and NonFiniteError -> 3, DataFormatError (and OSError) -> 4.
NonFiniteError is what the network forward (``Classifier._forward``, which
checks every output) and the tensor kernels raise on NaN/inf values, say
from a checkpoint with a NaN parameter; train() turns it into one
NumericAbort naming the batch or evaluation where it happened.
"""


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class NonFiniteError(ValueError):
    """A numeric kernel received NaN or infinite values."""


class NumericAbort(RuntimeError):
    """Training produced a non-finite quantity and cannot continue."""


class DataFormatError(ValueError):
    """A file on disk does not conform to its declared format."""


class CheckpointError(DataFormatError):
    """A checkpoint file is corrupt, truncated, or of an unknown version."""
