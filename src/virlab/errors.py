"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
NonFiniteError -> 3, DataFormatError (and OSError) -> 4.
NonFiniteError is the one numeric failure: the network forward
(``Classifier._forward``, which checks every output) and the tensor kernels
raise it on NaN/inf values, say from a checkpoint with a NaN parameter, and
train() re-raises it with the batch or evaluation where it happened.
"""


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class NonFiniteError(ValueError):
    """A numeric kernel received NaN or infinite values."""


class DataFormatError(ValueError):
    """A file on disk does not conform to its declared format."""


class CheckpointError(DataFormatError):
    """A checkpoint file is corrupt, truncated, or of an unknown version."""
