"""Exception taxonomy shared by every modkernel module."""


class ModkernelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ModkernelError):
    """Operands have incompatible shapes, or an index lies out of bounds."""


class ContractError(ModkernelError):
    """A caller violated an operation's precondition."""


class ConfigurationError(ModkernelError):
    """A configuration value is missing, unknown, or unusable."""


class DegenerateBatchError(ModkernelError):
    """A batch lacks the pair structure an objective needs."""


class UndefinedProxyError(ModkernelError):
    """The requested proxy objective is undefined for the given kernel bounds."""


class IngestionError(ModkernelError):
    """An external data file is malformed."""


class DivergenceError(ModkernelError):
    """A training loss became NaN or infinite."""


class WorkerError(ModkernelError):
    """A forked training worker exited without sending its result."""
