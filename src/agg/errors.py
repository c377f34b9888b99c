"""Exception types shared across the package."""


class AggError(Exception):
    pass


class DimensionError(AggError, ValueError):
    """Shapes or lengths do not match."""


class ParameterError(AggError, ValueError):
    """Invalid parameter or hyperparameter value."""


class InputError(AggError, ValueError):
    """Invalid runtime input (empty sequence, empty dataset, ...)."""


class ScheduleError(AggError, RuntimeError):
    """Optimizer stepped past its schedule."""


class ResourceError(AggError, RuntimeError):
    """Enumeration or oracle budget exceeded."""


class ParseError(AggError, ValueError):
    """Malformed dataset or grammar file."""


class ConfigError(AggError, ValueError):
    """Invalid run configuration."""
